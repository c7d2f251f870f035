package alloc

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/faults"
)

// fakeExec is a scripted executor: interference[f][t] is the set of
// additional faults injecting f under workload t triggers.
type fakeExec struct {
	tests        map[faults.ID][]TestInfo
	interference map[faults.ID]map[string][]faults.ID
	calls        []string
	dupCheck     map[string]bool
	t            *testing.T
}

func (f *fakeExec) TestsFor(id faults.ID) []TestInfo { return f.tests[id] }

func (f *fakeExec) Execute(id faults.ID, test string) []faults.ID {
	key := string(id) + "@" + test
	if f.dupCheck == nil {
		f.dupCheck = map[string]bool{}
	}
	if f.dupCheck[key] {
		f.t.Errorf("Execute called twice for %s", key)
	}
	f.dupCheck[key] = true
	f.calls = append(f.calls, key)
	return f.interference[id][test]
}

func mkSpace(n int) *faults.Space {
	var pts []faults.Point
	for i := 0; i < n; i++ {
		pts = append(pts, faults.Point{ID: faults.ID(fmt.Sprintf("s.f%02d", i)), Kind: faults.Throw})
	}
	return faults.NewSpace(pts, nil)
}

// uniformExec gives every fault the same covering tests and scripted
// outcomes.
func uniformExec(t *testing.T, space *faults.Space, tests []string, intf func(f faults.ID, test string) []faults.ID) *fakeExec {
	fe := &fakeExec{
		tests:        map[faults.ID][]TestInfo{},
		interference: map[faults.ID]map[string][]faults.ID{},
		t:            t,
	}
	for _, f := range space.IDs() {
		for i, tn := range tests {
			fe.tests[f] = append(fe.tests[f], TestInfo{Name: tn, Coverage: 100 - i})
		}
		m := map[string][]faults.ID{}
		for _, tn := range tests {
			m[tn] = intf(f, tn)
		}
		fe.interference[f] = m
	}
	return fe
}

func run3PA(t *testing.T, space *faults.Space, ex Executor, seed int64) *Result {
	p := &Protocol{Space: space, Rng: rand.New(rand.NewSource(seed))}
	return p.Run(ex)
}

func TestPhaseOneInjectsEveryFaultIntoHighestCoverageTest(t *testing.T) {
	space := mkSpace(6)
	ex := uniformExec(t, space, []string{"tBig", "tSmall"}, func(f faults.ID, test string) []faults.ID {
		return nil
	})
	res := run3PA(t, space, ex, 1)
	phase1 := 0
	for _, r := range res.Runs {
		if r.Phase == Phase1 {
			phase1++
			if r.Test != "tBig" {
				t.Errorf("phase-1 run for %s used %s, want highest-coverage tBig", r.Fault, r.Test)
			}
		}
	}
	if phase1 != 6 {
		t.Fatalf("phase-1 runs = %d, want one per fault", phase1)
	}
}

func TestBudgetIsFourTimesFaultCount(t *testing.T) {
	space := mkSpace(5)
	ex := uniformExec(t, space, []string{"t1", "t2", "t3", "t4", "t5"}, func(f faults.ID, test string) []faults.ID {
		return []faults.ID{f} // unique per fault: all singleton clusters
	})
	res := run3PA(t, space, ex, 2)
	if res.Budget != 20 {
		t.Fatalf("budget = %d, want 4x|F| = 20", res.Budget)
	}
	if len(res.Runs) != 20 {
		t.Fatalf("executed %d runs, want full budget 20", len(res.Runs))
	}
}

func TestCausallyEquivalentFaultsCluster(t *testing.T) {
	space := mkSpace(6)
	// Faults 0-2 all trigger fX; faults 3-5 trigger fY: two clusters.
	ex := uniformExec(t, space, []string{"t1", "t2", "t3"}, func(f faults.ID, test string) []faults.ID {
		if f < "s.f03" {
			return []faults.ID{"s.fX"}
		}
		return []faults.ID{"s.fY"}
	})
	res := run3PA(t, space, ex, 3)
	if len(res.Clusters) != 2 {
		t.Fatalf("clusters = %v, want 2", res.Clusters)
	}
	if res.ClusterOf["s.f00"] == res.ClusterOf["s.f05"] {
		t.Fatal("dissimilar faults ended in the same cluster")
	}
	if res.ClusterOf["s.f00"] != res.ClusterOf["s.f01"] {
		t.Fatal("causally-equivalent faults ended in different clusters")
	}
}

func TestNonImpactfulInjectionsClusterTogether(t *testing.T) {
	space := mkSpace(4)
	ex := uniformExec(t, space, []string{"t1", "t2"}, func(f faults.ID, test string) []faults.ID {
		return nil // nothing ever happens
	})
	res := run3PA(t, space, ex, 4)
	if len(res.Clusters) != 1 {
		t.Fatalf("clusters = %v, want all non-impactful faults together", res.Clusters)
	}
	// Perfectly matched interference: SimScore 1, weight floor epsilon.
	if res.SimScores[0] != 1 {
		t.Fatalf("SimScore = %v, want 1", res.SimScores[0])
	}
}

func TestConditionalClusterGetsHigherPhase3Share(t *testing.T) {
	space := mkSpace(8)
	manyTests := []string{"t1", "t2", "t3", "t4", "t5", "t6", "t7", "t8"}
	// Faults 0-3: same interference everywhere (unconditional cluster).
	// Faults 4-7: interference depends on the workload (conditional).
	ex := uniformExec(t, space, manyTests, func(f faults.ID, test string) []faults.ID {
		if f < "s.f04" {
			return []faults.ID{"s.stable"}
		}
		return []faults.ID{faults.ID("s.dep." + test)}
	})
	res := run3PA(t, space, ex, 5)
	counts := map[int]int{}
	for _, r := range res.Runs {
		if r.Phase == Phase3 {
			counts[res.ClusterOf[r.Fault]]++
		}
	}
	stable := res.ClusterOf["s.f00"]
	conditional := res.ClusterOf["s.f04"]
	if stable == conditional {
		t.Fatal("expected distinct clusters")
	}
	if counts[conditional] <= counts[stable] {
		t.Fatalf("phase-3 allocation: conditional=%d stable=%d, want conditional favoured", counts[conditional], counts[stable])
	}
}

func TestSimScoreOfUnknownFaultIsOne(t *testing.T) {
	res := &Result{ClusterOf: map[faults.ID]int{}}
	if s := res.SimScoreOf("nope"); s != 1 {
		t.Fatalf("SimScoreOf(unknown) = %v, want 1", s)
	}
}

func TestUnreachableFaultSkipped(t *testing.T) {
	space := mkSpace(3)
	ex := uniformExec(t, space, []string{"t1"}, func(f faults.ID, test string) []faults.ID { return nil })
	delete(ex.tests, "s.f01") // no workload reaches f01
	res := run3PA(t, space, ex, 6)
	for _, r := range res.Runs {
		if r.Fault == "s.f01" {
			t.Fatal("unreachable fault was injected")
		}
	}
	if _, ok := res.ClusterOf["s.f01"]; ok {
		t.Fatal("unreachable fault was clustered")
	}
}

func TestBudgetRespectsExhaustion(t *testing.T) {
	// Only one test per fault: 3PA cannot spend more than |F| runs.
	space := mkSpace(4)
	ex := uniformExec(t, space, []string{"only"}, func(f faults.ID, test string) []faults.ID { return nil })
	res := run3PA(t, space, ex, 7)
	if len(res.Runs) != 4 {
		t.Fatalf("runs = %d, want 4 (every pair exhausted)", len(res.Runs))
	}
}

func TestDeterministicForFixedSeed(t *testing.T) {
	mk := func(seed int64) []string {
		space := mkSpace(6)
		ex := uniformExec(t, space, []string{"t1", "t2", "t3", "t4"}, func(f faults.ID, test string) []faults.ID {
			return []faults.ID{faults.ID("x." + test)}
		})
		res := run3PA(t, space, ex, seed)
		var out []string
		for _, r := range res.Runs {
			out = append(out, fmt.Sprintf("%d:%s@%s", r.Phase, r.Fault, r.Test))
		}
		return out
	}
	a, b := mk(11), mk(11)
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("schedules diverge at %d: %s vs %s", i, a[i], b[i])
		}
	}
}

func TestPhaseTwoSpreadsAcrossClusters(t *testing.T) {
	space := mkSpace(6)
	ex := uniformExec(t, space, []string{"t1", "t2", "t3", "t4", "t5"}, func(f faults.ID, test string) []faults.ID {
		if f < "s.f03" {
			return []faults.ID{"s.gA"}
		}
		return []faults.ID{"s.gB"}
	})
	res := run3PA(t, space, ex, 8)
	p2 := map[int]int{}
	for _, r := range res.Runs {
		if r.Phase == Phase2 {
			p2[res.ClusterOf[r.Fault]]++
		}
	}
	if len(p2) != 2 {
		t.Fatalf("phase-2 clusters touched = %v, want both", p2)
	}
	diff := p2[0] - p2[1]
	if diff < -1 || diff > 1 {
		t.Fatalf("round-robin imbalance: %v", p2)
	}
}

func TestRandomBaselineSameBudget(t *testing.T) {
	space := mkSpace(5)
	ex := uniformExec(t, space, []string{"t1", "t2", "t3", "t4"}, func(f faults.ID, test string) []faults.ID { return nil })
	recs := driveWaves(t, NewRandomSchedule(space, 4, rand.New(rand.NewSource(9)), ex), ex, 0).Runs
	if len(recs) != 20 {
		t.Fatalf("random runs = %d, want 20", len(recs))
	}
	seen := map[string]bool{}
	for _, r := range recs {
		k := string(r.Fault) + "@" + r.Test
		if seen[k] {
			t.Fatalf("random baseline repeated pair %s", k)
		}
		seen[k] = true
	}
}

func TestRandomBaselineCapsAtPoolSize(t *testing.T) {
	space := mkSpace(3)
	ex := uniformExec(t, space, []string{"t1"}, func(f faults.ID, test string) []faults.ID { return nil })
	recs := driveWaves(t, NewRandomSchedule(space, 4, rand.New(rand.NewSource(10)), ex), ex, 0).Runs
	if len(recs) != 3 {
		t.Fatalf("random runs = %d, want pool size 3", len(recs))
	}
}
