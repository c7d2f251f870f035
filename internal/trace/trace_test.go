package trace

import (
	"reflect"
	"testing"
	"time"

	"repro/internal/faults"
	"repro/internal/sim"
)

func TestRunAccounting(t *testing.T) {
	r := NewRun("t1", 7)
	r.Cover("f.a")
	r.Activate("f.a", Occurrence{Stack: []string{"x"}})
	r.Activate("f.a", Occurrence{Stack: []string{"y"}})
	r.LoopIter("l.1")
	r.LoopIter("l.1")
	r.SeeLoop("l.1", Occurrence{Stack: []string{"fn"}})
	r.SeeLoop("l.1", Occurrence{Stack: []string{"other"}}) // ignored: first wins

	if r.Reached("f.a") != 2 {
		t.Errorf("Reached = %d", r.Reached("f.a"))
	}
	if r.LoopIters("l.1") != 2 {
		t.Errorf("LoopIters = %d", r.LoopIters("l.1"))
	}
	site, ok := r.LoopSiteOf("l.1")
	if !ok || site.Stack[0] != "fn" {
		t.Errorf("LoopSite = %v ok=%v, want first occurrence kept", site, ok)
	}
	if ids := r.ActivatedIDs(); len(ids) != 1 || ids[0] != "f.a" {
		t.Errorf("ActivatedIDs = %v", ids)
	}
	// Coverage is recorded by the hooks explicitly; Activate/LoopIter do
	// not imply it.
	if ids := r.CoveredIDs(); len(ids) != 1 || ids[0] != "f.a" {
		t.Errorf("CoveredIDs = %v", ids)
	}
	if got := len(r.OccOf("f.a")); got != 2 {
		t.Errorf("OccOf = %d occurrences", got)
	}
	if r.Reached("f.unseen") != 0 || r.Covered("f.unseen") || r.LoopIters("f.unseen") != 0 {
		t.Error("unseen ids must read as zero")
	}
}

// TestRunSpaceBackedDenseIDs checks that a space-backed run records state
// for both in-space points (dense index) and out-of-space monitor ids
// (overflow table), with identical read semantics.
func TestRunSpaceBackedDenseIDs(t *testing.T) {
	space := faults.NewSpace([]faults.Point{
		{ID: "s.a", Kind: faults.Throw},
		{ID: "s.b", Kind: faults.Loop, HasIO: true},
	}, nil)
	r := NewPool(space).Get("t", 1)
	r.Cover("s.a")
	r.Activate("s.a", Occurrence{Stack: []string{"f"}})
	r.LoopIter("s.b")
	r.Cover("s.monitor_only") // not in the space: overflow id
	if !r.Covered("s.a") || !r.Covered("s.monitor_only") || r.Covered("s.b") {
		t.Fatalf("coverage: a=%v mon=%v b=%v", r.Covered("s.a"), r.Covered("s.monitor_only"), r.Covered("s.b"))
	}
	if r.Reached("s.a") != 1 || r.LoopIters("s.b") != 1 {
		t.Fatalf("reached=%d iters=%d", r.Reached("s.a"), r.LoopIters("s.b"))
	}
	want := []faults.ID{"s.a", "s.monitor_only"}
	if got := r.CoveredIDs(); !reflect.DeepEqual(got, want) {
		t.Fatalf("CoveredIDs = %v, want %v", got, want)
	}
}

// TestPoolReuseLeaksNothing proves a Reset run carries no state between
// seeds: every counter, occurrence, injection flag, and result field of a
// recycled run reads exactly like a fresh one.
func TestPoolReuseLeaksNothing(t *testing.T) {
	space := faults.NewSpace([]faults.Point{
		{ID: "s.a", Kind: faults.Throw},
		{ID: "s.l", Kind: faults.Loop, HasIO: true},
	}, nil)
	pool := NewPool(space)

	dirty := pool.Get("t", 1)
	dirty.Cover("s.a")
	dirty.Activate("s.a", Occurrence{Stack: []string{"f"}, Branches: []sim.BranchEval{{ID: "b", Taken: true}}})
	dirty.LoopIter("s.l")
	dirty.SeeLoop("s.l", Occurrence{Stack: []string{"g"}})
	dirty.Cover("s.overflow")
	dirty.InjFired = true
	dirty.InjSite = Occurrence{Stack: []string{"inj"}}
	dirty.Result = sim.RunResult{Reason: sim.StopHorizon, Now: time.Second, Events: 9}
	dirty.Wall = time.Millisecond
	pool.Put(dirty)

	// sync.Pool gives no reuse guarantee, so exercise Reset directly too:
	// Get until we observe the recycled object (first Get almost always).
	r := pool.Get("t2", 2)
	if r.Test != "t2" || r.Seed != 2 {
		t.Fatalf("identity not set: %q/%d", r.Test, r.Seed)
	}
	for _, id := range []faults.ID{"s.a", "s.l", "s.overflow"} {
		if r.Reached(id) != 0 || r.LoopIters(id) != 0 || r.Covered(id) {
			t.Fatalf("leaked counters for %s", id)
		}
		if len(r.OccOf(id)) != 0 {
			t.Fatalf("leaked occurrences for %s", id)
		}
		if _, ok := r.LoopSiteOf(id); ok {
			t.Fatalf("leaked loop site for %s", id)
		}
	}
	if r.InjFired || r.InjSite.Stack != nil || r.InjSite.Branches != nil {
		t.Fatal("leaked injection state")
	}
	if r.Result != (sim.RunResult{}) || r.Wall != 0 {
		t.Fatal("leaked run result")
	}
	if ids := r.ActivatedIDs(); len(ids) != 0 {
		t.Fatalf("leaked activations: %v", ids)
	}
	if ids := r.CoveredIDs(); len(ids) != 0 {
		t.Fatalf("leaked coverage: %v", ids)
	}
	if ids := r.LoopIDs(); len(ids) != 0 {
		t.Fatalf("leaked loop ids: %v", ids)
	}
	if n := r.TotalReached(); n != 0 {
		t.Fatalf("leaked total activations: %d", n)
	}
}

func TestSetAggregation(t *testing.T) {
	set := &Set{}
	for i := 0; i < 4; i++ {
		r := NewRun("t", int64(i))
		if i < 3 {
			r.Activate("f.a", Occurrence{})
		}
		r.AddLoopIters("l", 10+i)
		if i == 0 {
			r.InjFired = true
			r.InjSite = Occurrence{Stack: []string{"site"}}
		}
		set.Add(r)
	}
	if set.Len() != 4 {
		t.Fatalf("len = %d", set.Len())
	}
	if got := set.ActivationRate("f.a"); got != 3 {
		t.Errorf("ActivationRate = %d", got)
	}
	samples := set.IterSamples("l")
	if len(samples) != 4 || samples[0] != 10 || samples[3] != 13 {
		t.Errorf("IterSamples = %v", samples)
	}
	if got := set.ActivatedAnywhere(); len(got) != 1 || got[0] != "f.a" {
		t.Errorf("ActivatedAnywhere = %v", got)
	}
	if got := set.InjSites(); len(got) != 1 || got[0].Stack[0] != "site" {
		t.Errorf("InjSites = %v", got)
	}
	if got := set.LoopIDs(); len(got) != 1 || got[0] != "l" {
		t.Errorf("LoopIDs = %v", got)
	}
}

func TestOccurrenceCapPooled(t *testing.T) {
	set := &Set{}
	for i := 0; i < 3; i++ {
		r := NewRun("t", int64(i))
		for j := 0; j < OccCap; j++ {
			r.Activate("f.a", Occurrence{Stack: []string{"s"}})
		}
		set.Add(r)
	}
	if got := len(set.Occurrences("f.a")); got != OccCap {
		t.Errorf("pooled occurrences = %d, want cap %d", got, OccCap)
	}
}

func TestCoverageUnion(t *testing.T) {
	set := &Set{}
	a := NewRun("t", 1)
	a.Cover("f.a")
	b := NewRun("t", 2)
	b.Cover("f.b")
	set.Add(a)
	set.Add(b)
	cov := set.Coverage()
	if !cov["f.a"] || !cov["f.b"] {
		t.Fatalf("coverage union = %v", cov)
	}
}
