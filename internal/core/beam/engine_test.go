package beam

import (
	"sort"
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
	c := &ichain{idx: []int{0}}
	if m.countsDelay(c, 1) {
		t.Error("same delay fault must not count twice")
	}
	if !m.countsDelay(c, 2) {
		t.Error("a new delay fault must count")
	}
}
