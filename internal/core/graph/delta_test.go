package graph_test

import (
	"reflect"
	"testing"

	"repro/internal/core/graph"
	"repro/internal/faults"
	"repro/internal/trace"
)

func TestDeltaSinceTracksNewAndTouchedEdges(t *testing.T) {
	g := graph.New()
	g.Add(dynEdge("a", "b", faults.EI, "t1", []trace.Occurrence{occ("s1")}, nil))
	g.Add(dynEdge("b", "c", faults.EI, "t1", nil, nil))
	mark := g.RawLen()

	// One brand-new identity and one evidence merge into an old record.
	g.Add(dynEdge("c", "a", faults.EI, "t1", nil, nil))
	g.Add(dynEdge("a", "b", faults.EI, "t1", []trace.Occurrence{occ("s2")}, nil))

	d := g.DeltaSince(mark)
	if d.FromSeq != mark || d.ToSeq != g.RawLen() {
		t.Fatalf("window = [%d, %d), want [%d, %d)", d.FromSeq, d.ToSeq, mark, g.RawLen())
	}
	if d.New != 1 {
		t.Fatalf("new edges = %d, want 1", d.New)
	}
	// Logical indices: a->b is record 0 (touched), c->a is record 2 (new).
	if !reflect.DeepEqual(d.Edges, []int{0, 2}) {
		t.Fatalf("delta edges = %v, want [0 2]", d.Edges)
	}
	want := []faults.ID{"a", "b", "c"}
	if !reflect.DeepEqual(d.Faults, want) {
		t.Fatalf("delta faults = %v, want %v", d.Faults, want)
	}
	if !g.DeltaSince(g.RawLen()).Empty() {
		t.Fatal("empty window reported a non-empty delta")
	}
}

func TestDeltaIgnoresCapRejectedMerges(t *testing.T) {
	g := graph.New()
	var ev []trace.Occurrence
	for i := 0; i < trace.OccCap; i++ {
		ev = append(ev, occ("s", string(rune('a'+i))))
	}
	g.Add(dynEdge("a", "b", faults.EI, "t1", ev, nil))
	mark := g.RawLen()
	// The record's evidence is already at the cap: this merge is wholly
	// rejected and must not surface in the delta.
	g.Add(dynEdge("a", "b", faults.EI, "t1", []trace.Occurrence{occ("late")}, nil))
	if d := g.DeltaSince(mark); !d.Empty() {
		t.Fatalf("cap-rejected merge surfaced in delta: %+v", d)
	}
}
