package beam

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/core/compat"
	"repro/internal/core/fca"
	"repro/internal/core/graph"
	"repro/internal/faults"
	"repro/internal/trace"
)

// cycleRichEdges generates a dynamic edge stream over a small fault set
// with overlapping stacks, so chains close often and evidence merges
// regularly extend existing records (the duplicate-identity rate is
// high).
func cycleRichEdges(rng *rand.Rand, n int) []fca.Edge {
	mkSt := func() compat.State {
		return compat.State{Occ: []trace.Occurrence{{Stack: []string{fmt.Sprintf("fn%d", rng.Intn(3))}}}}
	}
	var out []fca.Edge
	for i := 0; i < n; i++ {
		out = append(out, fca.Edge{
			From:      faults.ID(fmt.Sprintf("f.%d", rng.Intn(6))),
			To:        faults.ID(fmt.Sprintf("f.%d", rng.Intn(6))),
			Kind:      faults.EI,
			Test:      fmt.Sprintf("t%d", rng.Intn(3)),
			FromClass: faults.ClassException, ToClass: faults.ClassException,
			FromState: mkSt(), ToState: mkSt(),
		})
	}
	return out
}

// assertSameCycles holds a search result to the reference's: the same
// cycles in the same order, edge for edge, with bit-identical scores, and
// no signature reported twice.
func assertSameCycles(t *testing.T, tag string, got, want []Cycle) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: cycle counts diverge: got %d, reference %d", tag, len(got), len(want))
	}
	seen := make(map[string]bool, len(got))
	for i := range got {
		sig := got[i].Signature()
		if math.Float64bits(got[i].Score) != math.Float64bits(want[i].Score) || sig != want[i].Signature() {
			t.Fatalf("%s: cycle %d diverges:\ngot:       score=%v %s\nreference: score=%v %s",
				tag, i, got[i].Score, sig, want[i].Score, want[i].Signature())
		}
		if !reflect.DeepEqual(got[i].Edges, want[i].Edges) {
			t.Fatalf("%s: cycle %d edge lists diverge", tag, i)
		}
		if seen[sig] {
			t.Fatalf("%s: signature %s reported twice", tag, sig)
		}
		seen[sig] = true
	}
}

// TestSearchGraphMatchesReference holds SearchGraph -- a fresh
// searcher's rebuild and fold -- to the reference one-shot search over
// random graphs with fractional scores (so float summation order shows in
// the last ulp), across beams that do and do not truncate and worker
// counts: the rotations a rebuild records are the arrivals the reference
// merges, so the two agree even when the pruned beam drops rotations a
// chain could arrive at.
func TestSearchGraphMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var graphs []*graph.Graph
	for k := 0; k < 4; k++ {
		g := graph.FromEdges(cycleRichEdges(rng, 30+10*k))
		if k > 0 {
			for f := 0; f < 6; f++ {
				g.SetScore(faults.ID(fmt.Sprintf("f.%d", f)), rng.Float64())
			}
		}
		graphs = append(graphs, g)
	}
	graphs = append(graphs, classRichEdges(rng, 40))
	runs, truncations := 0, 0
	for gi, g := range graphs {
		for _, beam := range []int{0, 2, 3, 5} {
			for _, workers := range []int{1, 4} {
				opt := Options{BeamSize: beam, MaxLen: 5, Workers: workers}
				tag := fmt.Sprintf("graph %d beam %d workers %d", gi, beam, workers)
				want := refSearchGraph(g, nil, opt)
				if len(want) == 0 {
					t.Fatalf("%s: the reference found no cycle", tag)
				}
				assertSameCycles(t, tag, SearchGraph(g, nil, opt), want)
				opt.defaults()
				m := newMatcher(g, g.ScoreFunc())
				if m.runChains(allSeeds(m.ix.N), opt, false, nil, func(*ichain) {}) {
					truncations++
				}
				runs++
			}
		}
	}
	if truncations == 0 || truncations == runs {
		t.Fatalf("%d of %d searches truncated: the grid must cover both", truncations, runs)
	}
}

// TestIncrementalMatchesFullSearchOverRandomGrowth is the engine-level
// equivalence fuzz: a graph grown chunk by chunk from a random
// duplicate-heavy edge stream, searched incrementally after every chunk,
// must match the reference one-shot search on each round -- including
// rounds where evidence merges invalidate previously reported cycles
// and rounds where SimScores change between searches.
func TestIncrementalMatchesFullSearchOverRandomGrowth(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		rng := rand.New(rand.NewSource(seed))
		stream := cycleRichEdges(rng, 150)
		opt := Options{MaxLen: 5}
		inc := NewIncremental(opt)
		g := graph.New()
		for round := 0; len(stream) > 0; round++ {
			n := 1 + rng.Intn(20)
			if n > len(stream) {
				n = len(stream)
			}
			g.AddAll(stream[:n])
			stream = stream[n:]
			if round == 3 {
				// SimScores land mid-campaign (after phase-two scoring):
				// the fold must pick them up without re-enumeration.
				g.SetScore("f.0", 0.25)
				g.SetScore("f.1", 0.5)
			}
			got := inc.Search(g, nil)
			want := refSearchGraph(g, nil, opt)
			assertSameCycles(t, fmt.Sprintf("seed %d round %d", seed, round), got, want)
		}
	}
}

// TestIncrementalMatchesFullSearchUnderTruncation: with a beam small
// enough to truncate, the incremental engine must detect the pruned
// enumeration and re-enumerate from every seed -- still matching the
// reference exactly.
func TestIncrementalMatchesFullSearchUnderTruncation(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	stream := cycleRichEdges(rng, 120)
	opt := Options{MaxLen: 5, BeamSize: 3}
	inc := NewIncremental(opt)
	g := graph.New()
	for round := 0; len(stream) > 0; round++ {
		n := 15
		if n > len(stream) {
			n = len(stream)
		}
		g.AddAll(stream[:n])
		stream = stream[n:]
		got := inc.Search(g, nil)
		want := refSearchGraph(g, nil, opt)
		assertSameCycles(t, fmt.Sprintf("round %d", round), got, want)
	}
}

// TestIncrementalUpdateTruncatesAndRebuilds drives a searcher that is
// not full from the start (built in-package: NewIncremental makes every
// narrowed beam full) through the path where a primed round's
// delta-seeded enumeration truncates: that round must rebuild in the
// same call and still equal the reference, and from then on the searcher
// rebuilds every round and keeps no store between calls.
func TestIncrementalUpdateTruncatesAndRebuilds(t *testing.T) {
	ex := func(from, to faults.ID, test string) fca.Edge {
		return edge(from, to, faults.EI, faults.ClassException, faults.ClassException, test, st("x"), st("x"))
	}
	opt := Options{BeamSize: 3, MaxLen: 4, Workers: 2}
	opt.defaults()
	inc := &Incremental{opt: opt}
	g := graph.New()
	rounds := []struct {
		edges []fca.Edge
		// update: the round is primed and not full, so it takes update;
		// truncates: that update's enumeration overflows the beam.
		update, truncates bool
	}{
		{edges: []fca.Edge{ex("a", "b", "t0"), ex("b", "a", "t1")}},
		// Dead ends off b: seeded at themselves, they grow nothing.
		{edges: []fca.Edge{ex("b", "c1", "t2"), ex("b", "c2", "t3"), ex("b", "c3", "t4"), ex("b", "c4", "t5")}, update: true},
		// d -> b fans out into b's five successors: more than the beam.
		{edges: []fca.Edge{ex("d", "b", "t6")}, update: true, truncates: true},
		{edges: []fca.Edge{ex("a", "d", "t7")}},
		{edges: []fca.Edge{ex("c1", "a", "t8"), ex("c2", "d", "t9")}},
	}
	for i, r := range rounds {
		tag := fmt.Sprintf("round %d", i)
		g.AddAll(r.edges)
		if got := inc.primed && !inc.full; got != r.update {
			t.Fatalf("%s: takes update = %v, want %v", tag, got, r.update)
		}
		if r.update {
			m := newMatcher(g, g.ScoreFunc())
			touched := g.DeltaSince(inc.lastSeq).Edges
			if got := m.runChains(touched, opt, true, nil, func(*ichain) {}); got != r.truncates {
				t.Fatalf("%s: delta enumeration truncated = %v, want %v", tag, got, r.truncates)
			}
		}
		assertSameCycles(t, tag, inc.Search(g, nil), refSearchGraph(g, nil, opt))
		if full := i >= 2; inc.full != full || (inc.store == nil) != full {
			t.Fatalf("%s: full = %v with %d stored chains, want full = %v and a store only while not full",
				tag, inc.full, len(inc.store), full)
		}
	}
}

// TestIncrementalSurvivesStaticSectionGrowth: static connector edges
// shift logical indices; the searcher must recover (it re-enumerates)
// and still match the reference.
func TestIncrementalSurvivesStaticSectionGrowth(t *testing.T) {
	opt := Options{MaxLen: 4}
	inc := NewIncremental(opt)
	g := graph.New()
	g.AddAll(cycleRichEdges(rand.New(rand.NewSource(2)), 40))
	assertSameCycles(t, "before", inc.Search(g, nil), refSearchGraph(g, nil, opt))

	g.AddStatic([]fca.Edge{{
		From: "f.0", To: "f.1", Kind: faults.ICFG,
		FromClass: faults.ClassDelay, ToClass: faults.ClassDelay,
	}})
	g.AddAll(cycleRichEdges(rand.New(rand.NewSource(3)), 40))
	assertSameCycles(t, "after", inc.Search(g, nil), refSearchGraph(g, nil, opt))
}

func TestNearCycleFaultsOneEdgeShort(t *testing.T) {
	// a -> b and b -> a exist but the closing compatibility fails: the
	// return edge's target state does not intersect the first edge's
	// source state. Both faults sit on a near-cycle.
	e1 := edge("a", "b", faults.EI, faults.ClassException, faults.ClassException, "t1",
		st("x"), st("y"))
	e2 := edge("b", "a", faults.EI, faults.ClassException, faults.ClassException, "t2",
		st("y"), st("z")) // z vs x: close fails
	g := graph.FromEdges([]fca.Edge{e1, e2})
	if cycles := SearchGraph(g, nil, Options{}); len(cycles) != 0 {
		t.Fatalf("test setup broken: expected no closed cycles, got %v", cycles)
	}
	near := NearCycleFaults(g, Options{})
	if !near["a"] || !near["b"] {
		t.Fatalf("near-cycle faults = %v, want a and b", near)
	}

	// Completing the evidence closes the loop: the faults are no longer
	// one edge short (the cycle is reported instead).
	g2 := graph.FromEdges([]fca.Edge{e1,
		edge("b", "a", faults.EI, faults.ClassException, faults.ClassException, "t2",
			st("y"), st("x"))})
	if cycles := SearchGraph(g2, nil, Options{}); len(cycles) == 0 {
		t.Fatal("closing evidence did not produce a cycle")
	}
}
