package beam

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/core/compat"
	"repro/internal/core/fca"
	"repro/internal/core/graph"
	"repro/internal/faults"
	"repro/internal/trace"
)

// mkMatcher builds the search matcher over a graph interned from a flat
// edge slice.
func mkMatcher(edges []fca.Edge, simScoreOf func(faults.ID) float64) *matcher {
	if simScoreOf == nil {
		simScoreOf = func(faults.ID) float64 { return 1 }
	}
	return newMatcher(graph.FromEdges(edges), simScoreOf)
}

// edgeIdx looks an edge up by endpoints and kind: static connectors sort
// after the dynamic edges in graph order, so insertion position is not
// the matcher's index.
func edgeIdx(t *testing.T, m *matcher, from, to faults.ID, kind faults.EdgeKind) int {
	t.Helper()
	for i := range m.edges {
		if e := &m.edges[i]; e.From == from && e.To == to && e.Kind == kind {
			return i
		}
	}
	t.Fatalf("edge %s -%v-> %s not found", from, kind, to)
	return -1
}

func TestIntersects(t *testing.T) {
	cases := []struct {
		a, b []int32
		want bool
	}{
		{nil, nil, false},
		{[]int32{1}, nil, false},
		{[]int32{1, 3}, []int32{2, 3}, true},
		{[]int32{1, 2}, []int32{3, 4}, false},
		{[]int32{7}, []int32{7}, true},
	}
	for _, c := range cases {
		if got := intersects(c.a, c.b); got != c.want {
			t.Errorf("intersects(%v, %v) = %v", c.a, c.b, got)
		}
	}
}

func TestIntersectsCommutativeProperty(t *testing.T) {
	f := func(a, b []uint8) bool {
		mk := func(xs []uint8) []int32 {
			m := map[int32]bool{}
			for _, x := range xs {
				m[int32(x%16)] = true
			}
			out := make([]int32, 0, len(m))
			for k := range m {
				out = append(out, k)
			}
			sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
			return out
		}
		sa, sb := mk(a), mk(b)
		return intersects(sa, sb) == intersects(sb, sa)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestInternedKeysDeduplicated pins the insertion-time interning: two
// occurrences with the same stack (and empty branch trace) collapse to a
// single interned key in both the stack-only and full key sets.
func TestInternedKeysDeduplicated(t *testing.T) {
	s := compat.State{Occ: []trace.Occurrence{
		{Stack: []string{"f", "g"}, Branches: nil},
		{Stack: []string{"f", "g"}},
	}}
	e := fca.Edge{From: "a", To: "b", Kind: faults.EI, Test: "t", ToState: s}
	m := mkMatcher([]fca.Edge{e}, nil)
	if got := m.ix.ToStack[0]; len(got) != 1 {
		t.Fatalf("stack key set = %v, want deduplicated to 1", got)
	}
	if got := m.ix.ToFull[0]; len(got) != 1 {
		t.Fatalf("full key set = %v, want deduplicated to 1", got)
	}
}

func TestConnectorSequencingRules(t *testing.T) {
	mk := func(from, to faults.ID, kind faults.EdgeKind) fca.Edge {
		return fca.Edge{From: from, To: to, Kind: kind,
			FromClass: faults.ClassDelay, ToClass: faults.ClassDelay,
			FromState: compat.State{DelayFault: true}, ToState: compat.State{DelayFault: true}}
	}
	edges := []fca.Edge{
		mk("a", "b", faults.ICFG),
		mk("b", "c", faults.ICFG),
		mk("b", "c", faults.CFG),
		mk("c", "d", faults.CFG),
		mk("c", "d", faults.SD),
	}
	m := mkMatcher(edges, nil)
	ab := edgeIdx(t, m, "a", "b", faults.ICFG)
	bcI := edgeIdx(t, m, "b", "c", faults.ICFG)
	bcC := edgeIdx(t, m, "b", "c", faults.CFG)
	cdC := edgeIdx(t, m, "c", "d", faults.CFG)
	cdS := edgeIdx(t, m, "c", "d", faults.SD)
	if m.matchIdx(ab, bcI) {
		t.Error("ICFG -> ICFG must not chain")
	}
	if !m.matchIdx(ab, bcC) {
		t.Error("ICFG -> CFG must chain (pattern 2b)")
	}
	if m.matchIdx(bcC, cdC) {
		t.Error("CFG -> CFG must not chain")
	}
	if !m.matchIdx(bcC, cdS) {
		t.Error("CFG -> dynamic S+(D) must chain")
	}
}

func TestOneNestFamilyFilter(t *testing.T) {
	groups := map[faults.ID]int{"p": 0, "c1": 0, "c2": 0}
	mk := func(from, to faults.ID, kind faults.EdgeKind) fca.Edge {
		return fca.Edge{From: from, To: to, Kind: kind,
			FromClass: faults.ClassDelay, ToClass: faults.ClassDelay}
	}
	m := mkMatcher([]fca.Edge{
		mk("p", "c1", faults.SD), mk("c1", "p", faults.ICFG),
		mk("p", "x", faults.SD), mk("x", "p", faults.SD),
	}, nil)
	inNest := []int{edgeIdx(t, m, "p", "c1", faults.SD), edgeIdx(t, m, "c1", "p", faults.ICFG)}
	crossing := []int{edgeIdx(t, m, "p", "x", faults.SD), edgeIdx(t, m, "x", "p", faults.SD)}
	if !m.oneNestFamilyIdx(inNest, groups) {
		t.Error("pure nest-family cycle must be filtered")
	}
	if m.oneNestFamilyIdx(crossing, groups) {
		t.Error("cycle leaving the nest must be kept")
	}
	if m.oneNestFamilyIdx(inNest, nil) {
		t.Error("no nest info means no filtering")
	}
}

func TestCountsDelayDistinct(t *testing.T) {
	edges := []fca.Edge{
		{From: "l1", To: "x", Kind: faults.SD, FromClass: faults.ClassDelay, ToClass: faults.ClassDelay},
		{From: "l1", To: "y", Kind: faults.ED, FromClass: faults.ClassDelay, ToClass: faults.ClassException},
		{From: "l2", To: "z", Kind: faults.SD, FromClass: faults.ClassDelay, ToClass: faults.ClassDelay},
	}
	m := mkMatcher(edges, nil)
	row := []int32{0}
	if m.countsDelay(row, 1) {
		t.Error("same delay fault must not count twice")
	}
	if !m.countsDelay(row, 2) {
		t.Error("a new delay fault must count")
	}
}

// classRichEdges is cycleRichEdges over delay and exception faults with
// the edge kinds their classes imply, so delay-injection limits bite, plus
// a static ICFG -> CFG connector pair through the delay faults.
func classRichEdges(rng *rand.Rand, n int) *graph.Graph {
	fault := func() (faults.ID, faults.FaultClass) {
		k := rng.Intn(7)
		if k < 3 {
			return faults.ID(fmt.Sprintf("l.%d", k)), faults.ClassDelay
		}
		return faults.ID(fmt.Sprintf("f.%d", k)), faults.ClassException
	}
	state := func(c faults.FaultClass) compat.State {
		return compat.State{DelayFault: c == faults.ClassDelay,
			Occ: []trace.Occurrence{{Stack: []string{fmt.Sprintf("fn%d", rng.Intn(3))}}}}
	}
	var dyn []fca.Edge
	for i := 0; i < n; i++ {
		from, fc := fault()
		to, tc := fault()
		kind := map[[2]bool]faults.EdgeKind{
			{false, false}: faults.EI, {false, true}: faults.ED,
			{true, false}: faults.SI, {true, true}: faults.SD,
		}[[2]bool{tc == faults.ClassDelay, fc == faults.ClassDelay}]
		dyn = append(dyn, fca.Edge{From: from, To: to, Kind: kind, Test: fmt.Sprintf("t%d", rng.Intn(3)),
			FromClass: fc, ToClass: tc, FromState: state(fc), ToState: state(tc)})
	}
	g := graph.FromEdges(dyn)
	conn := func(from, to faults.ID, kind faults.EdgeKind) fca.Edge {
		return fca.Edge{From: from, To: to, Kind: kind,
			FromClass: faults.ClassDelay, ToClass: faults.ClassDelay,
			FromState: compat.State{DelayFault: true}, ToState: compat.State{DelayFault: true}}
	}
	g.AddStatic([]fca.Edge{conn("l.0", "l.1", faults.ICFG), conn("l.1", "l.2", faults.CFG)})
	return g
}

// chainLog records what a run hands its sinks, as sorted multisets.
type chainLog struct {
	mu          sync.Mutex
	sunk, nears []string
}

func (l *chainLog) sink(c *ichain) {
	s := fmt.Sprintf("%v %v %d %d", c.idx, c.score, c.injs, c.delayInj)
	l.mu.Lock()
	l.sunk = append(l.sunk, s)
	l.mu.Unlock()
}

func (l *chainLog) near(idx []int) {
	s := fmt.Sprint(idx)
	l.mu.Lock()
	l.nears = append(l.nears, s)
	l.mu.Unlock()
}

func (l *chainLog) sorted() ([]string, []string) {
	sort.Strings(l.sunk)
	sort.Strings(l.nears)
	return l.sunk, l.nears
}

// TestRunChainsMatchesReference holds the columnar engine to the
// reference beam over random graphs (scored and unscored, with and
// without connectors) across beam widths, chain lengths, delay limits,
// worker counts and both close modes: the same chains reach the sink with
// the same scores, the same near chains are reported, and truncation is
// flagged alike.
func TestRunChainsMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var graphs []*graph.Graph
	for k := 0; k < 3; k++ {
		g := graph.FromEdges(cycleRichEdges(rng, 40))
		if k > 0 {
			// Distinct means exercise the score order; k == 0 leaves every
			// chain at mean 1, so the edge-id tie-break decides alone.
			for f := 0; f < 6; f++ {
				g.SetScore(faults.ID(fmt.Sprintf("f.%d", f)), float64(rng.Intn(4))/4)
			}
		}
		graphs = append(graphs, g)
	}
	graphs = append(graphs, classRichEdges(rng, 50))
	runs, truncations := 0, 0
	for gi, g := range graphs {
		m := newMatcher(g, g.ScoreFunc())
		var touched []int
		for i := 0; i < m.ix.N; i += 3 {
			touched = append(touched, i)
		}
		for _, beam := range []int{1, 2, 3, 7, 0} {
			for _, maxLen := range []int{2, 3, 5, 8} {
				for _, delays := range []int{0, 1} {
					for _, workers := range []int{1, 2, 3, 8} {
						for _, through := range []bool{false, true} {
							opt := Options{BeamSize: beam, MaxLen: maxLen, MaxDelayInjections: delays, Workers: workers}
							opt.defaults()
							seeds := allSeeds(m.ix.N)
							if through {
								seeds = touched
							}
							var got, want chainLog
							gotTrunc := m.runChains(seeds, opt, through, got.near, got.sink)
							wantTrunc := m.refRunChains(seeds, opt, through, want.near, want.sink)
							tag := fmt.Sprintf("graph %d beam %d len %d delays %d workers %d through %v",
								gi, beam, maxLen, delays, workers, through)
							if gotTrunc != wantTrunc {
								t.Fatalf("%s: truncated = %v, reference %v", tag, gotTrunc, wantTrunc)
							}
							gs, gn := got.sorted()
							ws, wn := want.sorted()
							if !reflect.DeepEqual(gs, ws) {
								t.Fatalf("%s: %d sunk chains, reference %d", tag, len(gs), len(ws))
							}
							if !reflect.DeepEqual(gn, wn) {
								t.Fatalf("%s: %d near chains, reference %d", tag, len(gn), len(wn))
							}
							runs++
							if wantTrunc {
								truncations++
							}
						}
					}
				}
			}
		}
	}
	if truncations == 0 || truncations == runs {
		t.Fatalf("%d of %d runs truncated: the grid must cover both", truncations, runs)
	}
}

// TestExpandKeepsAtMostBeamPerWorker pins the memory bound: however many
// children a level generates, no worker stores more than BeamSize of
// them, and the ones it stores are its best.
func TestExpandKeepsAtMostBeamPerWorker(t *testing.T) {
	g := graph.FromEdges(cycleRichEdges(rand.New(rand.NewSource(3)), 60))
	m := newMatcher(g, g.ScoreFunc())
	opt := Options{BeamSize: 4, Workers: 3}
	opt.defaults()
	queue := &chainRows{width: 1}
	for i := 0; i < m.ix.N; i++ {
		queue.push(nil, int32(i), 1, 1, 0)
	}
	ws := make([]chainWorker, opt.Workers)
	shards := m.expand(ws, queue, opt, false, false, nil, func(*ichain) {})
	for w := range ws[:shards] {
		wk := &ws[w]
		if wk.children <= opt.BeamSize {
			t.Fatalf("worker %d generated %d children: the graph must overflow the beam", w, wk.children)
		}
		if n := wk.kept.len(); n != opt.BeamSize {
			t.Fatalf("worker %d kept %d of %d children, want %d", w, n, wk.children, opt.BeamSize)
		}
		for _, r := range wk.heap[1:] {
			if wk.kept.rowBefore(int(wk.heap[0]), int(r)) {
				t.Fatalf("worker %d: heap top is not its worst kept row", w)
			}
		}
	}
}

// TestTruncationFlagAtExactBeam: a level with exactly BeamSize
// queue-worthy children is not truncated and one with BeamSize+1 is,
// whether that level is stored or, as the last level, only counted.
func TestTruncationFlagAtExactBeam(t *testing.T) {
	ex := func(from, to faults.ID, test string, fs, ts string) fca.Edge {
		return edge(from, to, faults.EI, faults.ClassException, faults.ClassException, test, st(fs), st(ts))
	}
	// a -> b fans out to three dead ends: level 1 has three children.
	m := mkMatcher([]fca.Edge{
		ex("a", "b", "t0", "p", "x"),
		ex("b", "c1", "t1", "x", "q"), ex("b", "c2", "t2", "x", "q"), ex("b", "c3", "t3", "x", "q"),
	}, nil)
	for _, maxLen := range []int{2, 3} {
		for beam, want := range map[int]bool{2: true, 3: false} {
			opt := Options{BeamSize: beam, MaxLen: maxLen, Workers: 2}
			opt.defaults()
			nop := func(*ichain) {}
			if got := m.runChains(allSeeds(m.ix.N), opt, false, nil, nop); got != want {
				t.Errorf("len %d beam %d: truncated = %v, want %v", maxLen, beam, got, want)
			}
			if ref := m.refRunChains(allSeeds(m.ix.N), opt, false, nil, nop); ref != want {
				t.Errorf("len %d beam %d: reference truncated = %v, want %v", maxLen, beam, ref, want)
			}
		}
	}
}
