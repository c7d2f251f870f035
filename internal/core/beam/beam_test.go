package beam

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/core/compat"
	"repro/internal/core/fca"
	"repro/internal/core/graph"
	"repro/internal/faults"
	"repro/internal/trace"
)

func st(stack ...string) compat.State {
	return compat.State{Occ: []trace.Occurrence{{Stack: stack}}}
}

func delaySt(stack ...string) compat.State {
	s := st(stack...)
	s.DelayFault = true
	return s
}

// edge builds a dynamic edge with compatible-by-stack states.
func edge(from, to faults.ID, kind faults.EdgeKind, fc, tc faults.FaultClass, test string, fromStack, toStack compat.State) fca.Edge {
	return fca.Edge{
		From: from, To: to, Kind: kind,
		FromClass: fc, ToClass: tc,
		Test: test, FromState: fromStack, ToState: toStack,
	}
}

// graphOf interns edges into the graph SearchGraph takes.
func graphOf(edges ...fca.Edge) *graph.Graph { return graph.FromEdges(edges) }

func TestTwoEdgeCycleAcrossWorkloads(t *testing.T) {
	// The paper's core scenario: f1 -> f2 in t1 and f2 -> f1 in t2 stitch
	// into the causal cycle f1 -> f2 -> f1.
	e1 := edge("f1", "f2", faults.EI, faults.ClassException, faults.ClassException,
		"t1", st("h1"), st("site2"))
	e2 := edge("f2", "f1", faults.EI, faults.ClassException, faults.ClassException,
		"t2", st("site2"), st("h1"))
	cycles := SearchGraph(graphOf(e1, e2), nil, Options{})
	if len(cycles) != 1 {
		t.Fatalf("cycles = %v, want 1", cycles)
	}
	if len(cycles[0].Edges) != 2 {
		t.Fatalf("cycle length = %d, want 2", len(cycles[0].Edges))
	}
}

func TestIncompatibleStatesBlockStitching(t *testing.T) {
	// f2's interference site in t1 differs from its injection site in t2:
	// the local compatibility check must reject the stitch.
	e1 := edge("f1", "f2", faults.EI, faults.ClassException, faults.ClassException,
		"t1", st("h1"), st("siteA"))
	e2 := edge("f2", "f1", faults.EI, faults.ClassException, faults.ClassException,
		"t2", st("siteB"), st("h1"))
	cycles := SearchGraph(graphOf(e1, e2), nil, Options{})
	if len(cycles) != 0 {
		t.Fatalf("cycles = %v, want none (incompatible states)", cycles)
	}
}

func TestClassMismatchBlocksStitching(t *testing.T) {
	// f2 is an exception in edge 1 but the second edge's source is a
	// delay fault with the same id (cannot happen with a well-formed
	// space, but the matcher must still refuse).
	e1 := edge("f1", "f2", faults.EI, faults.ClassException, faults.ClassException,
		"t1", st("h1"), st("s"))
	e2 := edge("f2", "f1", faults.ED, faults.ClassDelay, faults.ClassException,
		"t2", delaySt("s"), st("h1"))
	cycles := SearchGraph(graphOf(e1, e2), nil, Options{})
	if len(cycles) != 0 {
		t.Fatalf("cycles = %v, want none (class mismatch)", cycles)
	}
}

func TestSelfEdgeIsLengthOneCycle(t *testing.T) {
	e := edge("f1", "f1", faults.EI, faults.ClassException, faults.ClassException,
		"t1", st("h"), st("h"))
	cycles := SearchGraph(graphOf(e), nil, Options{})
	if len(cycles) != 1 || len(cycles[0].Edges) != 1 {
		t.Fatalf("cycles = %v, want one length-1 cycle", cycles)
	}
}

func TestNestedLoopICFGCycle(t *testing.T) {
	// f1(exception) -S+(I)-> loopB; loopB -ICFG-> loopA (static);
	// loopA(delay) -E(D)-> f1. Pattern 2a of §6.1.
	e1 := edge("f1", "loopB", faults.SI, faults.ClassException, faults.ClassDelay,
		"t1", st("h1"), delaySt("batch"))
	icfg := fca.Edge{From: "loopB", To: "loopA", Kind: faults.ICFG,
		FromClass: faults.ClassDelay, ToClass: faults.ClassDelay,
		FromState: compat.State{DelayFault: true}, ToState: compat.State{DelayFault: true}}
	e2 := edge("loopA", "f1", faults.ED, faults.ClassDelay, faults.ClassException,
		"t2", delaySt("outer"), st("h1"))
	cycles := SearchGraph(graphOf(e1, icfg, e2), nil, Options{})
	if len(cycles) != 1 {
		t.Fatalf("cycles = %d, want 1", len(cycles))
	}
	if len(cycles[0].Edges) != 3 {
		t.Fatalf("cycle = %v, want 3 edges", cycles[0])
	}
	d, e, n := cycles[0].Composition()
	if d != 1 || e != 1 || n != 0 {
		t.Fatalf("composition = %dD|%dE|%dN, want 1D|1E|0N (ICFG connector not counted)", d, e, n)
	}
}

func TestMaxDelayInjectionCap(t *testing.T) {
	// Cycle requiring two distinct delay injections.
	e1 := edge("loopA", "loopB", faults.SD, faults.ClassDelay, faults.ClassDelay,
		"t1", delaySt("a"), delaySt("b"))
	e2 := edge("loopB", "loopA", faults.SD, faults.ClassDelay, faults.ClassDelay,
		"t2", delaySt("b"), delaySt("a"))
	if cycles := SearchGraph(graphOf(e1, e2), nil, Options{MaxDelayInjections: -1}); len(cycles) != 1 {
		t.Fatalf("unlimited: cycles = %v, want 1", cycles)
	}
	if cycles := SearchGraph(graphOf(e1, e2), nil, Options{MaxDelayInjections: 1}); len(cycles) != 0 {
		t.Fatalf("capped: cycles = %v, want 0", cycles)
	}
}

func TestThreeEdgeCycleFaultsAndComposition(t *testing.T) {
	// delay -> exception -> negation -> delay (the HBase §8.3.1 shape).
	e1 := edge("loop.deploy", "ioe.assign", faults.ED, faults.ClassDelay, faults.ClassException,
		"t1", delaySt("deploy"), st("assign"))
	e2 := edge("ioe.assign", "neg.balancer", faults.EI, faults.ClassException, faults.ClassNegation,
		"t2", st("assign"), st("balancer"))
	e3 := edge("neg.balancer", "loop.deploy", faults.SI, faults.ClassNegation, faults.ClassDelay,
		"t3", st("balancer"), delaySt("deploy"))
	cycles := SearchGraph(graphOf(e1, e2, e3), nil, Options{})
	if len(cycles) != 1 {
		t.Fatalf("cycles = %d, want 1", len(cycles))
	}
	d, e, n := cycles[0].Composition()
	if d != 1 || e != 1 || n != 1 {
		t.Fatalf("composition = %dD|%dE|%dN, want 1D|1E|1N", d, e, n)
	}
	fs := cycles[0].Faults()
	if len(fs) != 3 {
		t.Fatalf("faults = %v", fs)
	}
}

func TestCycleDeduplicationAcrossRotations(t *testing.T) {
	e1 := edge("a", "b", faults.EI, faults.ClassException, faults.ClassException,
		"t1", st("sa"), st("sb"))
	e2 := edge("b", "a", faults.EI, faults.ClassException, faults.ClassException,
		"t2", st("sb"), st("sa"))
	cycles := SearchGraph(graphOf(e1, e2), nil, Options{MaxLen: 6})
	// Both [e1,e2] and [e2,e1] close; they are the same cycle.
	if len(cycles) != 1 {
		t.Fatalf("cycles = %d, want 1 after rotation dedup", len(cycles))
	}
}

func TestScoreRankingPrefersConditionalClusters(t *testing.T) {
	simScore := func(f faults.ID) float64 {
		if strings.HasPrefix(string(f), "cond.") {
			return 0.1
		}
		return 0.9
	}
	e1 := edge("cond.a", "cond.b", faults.EI, faults.ClassException, faults.ClassException,
		"t1", st("x"), st("y"))
	e2 := edge("cond.b", "cond.a", faults.EI, faults.ClassException, faults.ClassException,
		"t2", st("y"), st("x"))
	e3 := edge("flat.a", "flat.b", faults.EI, faults.ClassException, faults.ClassException,
		"t3", st("p"), st("q"))
	e4 := edge("flat.b", "flat.a", faults.EI, faults.ClassException, faults.ClassException,
		"t4", st("q"), st("p"))
	cycles := SearchGraph(graphOf(e1, e2, e3, e4), simScore, Options{})
	if len(cycles) != 2 {
		t.Fatalf("cycles = %d, want 2", len(cycles))
	}
	if cycles[0].Score >= cycles[1].Score {
		t.Fatalf("scores = %v, %v: conditional cycle must rank first", cycles[0].Score, cycles[1].Score)
	}
	if !strings.HasPrefix(string(cycles[0].Faults()[0]), "cond.") {
		t.Fatalf("first cycle = %v, want the conditional one", cycles[0])
	}
}

// TestBeamSizePrunesHighScoreChains: one good 3-cycle beside four bad
// ones, every edge with a single successor. Level 1 holds one length-2
// chain per edge, the good cycle's three first; a beam of 2 keeps only
// good chains, so no bad cycle ever closes, while the default beam
// reports all five.
func TestBeamSizePrunesHighScoreChains(t *testing.T) {
	simScore := func(f faults.ID) float64 {
		if strings.HasPrefix(string(f), "good.") {
			return 0.0
		}
		return 1.0
	}
	var edges []fca.Edge
	for _, name := range []string{"good", "bad.w", "bad.x", "bad.y", "bad.z"} {
		for k := 0; k < 3; k++ {
			from := faults.ID(fmt.Sprintf("%s%d", name, k))
			to := faults.ID(fmt.Sprintf("%s%d", name, (k+1)%3))
			edges = append(edges, edge(from, to, faults.EI, faults.ClassException, faults.ClassException,
				"t"+name, st(string(from)), st(string(to))))
		}
	}
	hasBad := func(cycles []Cycle) bool {
		for _, c := range cycles {
			if strings.HasPrefix(string(c.Faults()[0]), "bad.") {
				return true
			}
		}
		return false
	}
	all := SearchGraph(graphOf(edges...), simScore, Options{})
	if len(all) != 5 || !hasBad(all) {
		t.Fatalf("default beam: cycles = %v, want all five", all)
	}
	pruned := SearchGraph(graphOf(edges...), simScore, Options{BeamSize: 2})
	if len(pruned) != 1 || hasBad(pruned) {
		t.Fatalf("beam 2: cycles = %v, want only the good one", pruned)
	}
}

func TestNoCycleInDAG(t *testing.T) {
	e1 := edge("a", "b", faults.EI, faults.ClassException, faults.ClassException, "t1", st("x"), st("y"))
	e2 := edge("b", "c", faults.EI, faults.ClassException, faults.ClassException, "t2", st("y"), st("z"))
	if cycles := SearchGraph(graphOf(e1, e2), nil, Options{}); len(cycles) != 0 {
		t.Fatalf("cycles = %v in a DAG", cycles)
	}
}

func TestEmptyEdgeSet(t *testing.T) {
	if cycles := SearchGraph(graphOf(), nil, Options{}); len(cycles) != 0 {
		t.Fatal("cycles from nothing")
	}
}

func TestClusterCyclesGroupsEquivalentBugs(t *testing.T) {
	clusterOf := func(f faults.ID) (int, bool) {
		switch f {
		case "f1", "f3": // causally equivalent
			return 0, true
		case "f2":
			return 1, true
		}
		return 0, false
	}
	mk := func(a, b faults.ID) Cycle {
		return Cycle{Edges: []fca.Edge{
			edge(a, b, faults.EI, faults.ClassException, faults.ClassException, "t1", st("x"), st("y")),
			edge(b, a, faults.EI, faults.ClassException, faults.ClassException, "t2", st("y"), st("x")),
		}}
	}
	// f1->f2->f1 and f3->f2->f3 involve clusters {0,1}: same bug (§6.3).
	groups := ClusterCycles([]Cycle{mk("f1", "f2"), mk("f3", "f2")}, clusterOf)
	if len(groups) != 1 {
		t.Fatalf("groups = %d, want 1", len(groups))
	}
	if len(groups[0].Cycles) != 2 {
		t.Fatalf("member cycles = %d, want 2", len(groups[0].Cycles))
	}
}

func TestClusterCyclesSeparatesDifferentBugs(t *testing.T) {
	clusterOf := func(f faults.ID) (int, bool) { return 0, false } // all unclustered
	mk := func(a, b faults.ID) Cycle {
		return Cycle{Edges: []fca.Edge{
			edge(a, b, faults.EI, faults.ClassException, faults.ClassException, "t1", st("x"), st("y")),
			edge(b, a, faults.EI, faults.ClassException, faults.ClassException, "t2", st("y"), st("x")),
		}}
	}
	groups := ClusterCycles([]Cycle{mk("f1", "f2"), mk("f3", "f4")}, clusterOf)
	if len(groups) != 2 {
		t.Fatalf("groups = %d, want 2", len(groups))
	}
}

func TestSearchDeterministic(t *testing.T) {
	mkEdges := func() []fca.Edge {
		return []fca.Edge{
			edge("a", "b", faults.EI, faults.ClassException, faults.ClassException, "t1", st("x"), st("y")),
			edge("b", "a", faults.EI, faults.ClassException, faults.ClassException, "t2", st("y"), st("x")),
			edge("b", "c", faults.EI, faults.ClassException, faults.ClassException, "t3", st("y"), st("z")),
			edge("c", "a", faults.EI, faults.ClassException, faults.ClassException, "t4", st("z"), st("x")),
		}
	}
	render := func(cs []Cycle) string {
		var b strings.Builder
		for _, c := range cs {
			b.WriteString(c.Signature())
			b.WriteByte('\n')
		}
		return b.String()
	}
	a := render(SearchGraph(graphOf(mkEdges()...), nil, Options{Workers: 4}))
	b := render(SearchGraph(graphOf(mkEdges()...), nil, Options{Workers: 1}))
	if a != b {
		t.Fatalf("worker count changed results:\n%s\nvs\n%s", a, b)
	}
}
