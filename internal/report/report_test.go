package report

import (
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/core/csnake"
	"repro/internal/systems/dfs"
	"repro/internal/systems/kvstore"
	"repro/internal/systems/sysreg"
)

func repoRoot(t *testing.T) string {
	t.Helper()
	_, file, _, ok := runtime.Caller(0)
	if !ok {
		t.Fatal("no caller info")
	}
	return filepath.Join(filepath.Dir(file), "..", "..")
}

func TestTable2AgainstSources(t *testing.T) {
	rows, err := Table2(repoRoot(t), []sysreg.System{dfs.NewV2(), kvstore.New()})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	hdfs := rows[0]
	if hdfs.System != "HDFS 2" || hdfs.Loops < 14 || hdfs.Exceptions < 12 || hdfs.Negations < 6 || hdfs.Tests != 14 {
		t.Fatalf("HDFS 2 row = %+v", hdfs)
	}
	var b strings.Builder
	WriteTable2(&b, rows)
	if !strings.Contains(b.String(), "HDFS 2") || !strings.Contains(b.String(), "HBase") {
		t.Fatalf("render:\n%s", b.String())
	}
}

func TestWriteTable3Rendering(t *testing.T) {
	rows := []Table3Row{
		{System: "X", Bug: sysreg.Bug{ID: "X-1", Title: "Some task"},
			Detected: true, Cycle: "1D | 1E | 0N", AllocPhase: 2, Random: true, Alt: false},
		{System: "X", Bug: sysreg.Bug{ID: "X-2", Title: "Other"}, Detected: false},
	}
	var b strings.Builder
	WriteTable3(&b, rows)
	out := b.String()
	for _, want := range []string{"X-1", "1D | 1E | 0N", "Some task"} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in:\n%s", want, out)
		}
	}
}

// TestTable3AllocPhaseFromReportGraph pins the Table 3 "Alloc" column on
// a real light campaign (the configuration `experiments -table 3 -system
// hbase` runs): phaseReports cuts the per-phase prefixes out of the
// report's own graph, and both seeded HBase bugs are already revealed by
// the edges phase 1 accumulated.
func TestTable3AllocPhaseFromReportGraph(t *testing.T) {
	if testing.Short() {
		t.Skip("full real-system campaign skipped in -short mode")
	}
	art := RunCampaign(kvstore.New(),
		csnake.WithSeed(42), csnake.WithReps(3),
		csnake.WithDelayMagnitudes(500*time.Millisecond, 2*time.Second, 8*time.Second))
	if art.Err != nil {
		t.Fatal(art.Err)
	}
	subs := phaseReports(art)
	if len(subs) != 3 {
		t.Fatalf("phaseReports = %d sub-reports, want 3", len(subs))
	}
	// The prefixes are real cuts: phase 1 saw strictly less raw evidence
	// than the whole campaign, and phase 3 is the whole campaign.
	if p1, all := subs[0].Graph.RawLen(), art.Report.Graph.RawLen(); p1 == 0 || p1 >= all {
		t.Fatalf("phase-1 prefix has %d raw edges of %d", p1, all)
	}
	if !reflect.DeepEqual(subs[2].Edges, art.Report.Edges) {
		t.Fatalf("phase-3 prefix has %d edges, the report %d", len(subs[2].Edges), len(art.Report.Edges))
	}
	phase := map[string]int{}
	for _, r := range Table3(art, nil, nil) {
		if !r.Detected {
			t.Errorf("%s not detected", r.Bug.ID)
		}
		phase[r.Bug.ID] = r.AllocPhase
	}
	if want := map[string]int{"HBASE-1": 1, "HBASE-2": 1}; !reflect.DeepEqual(phase, want) {
		t.Fatalf("AllocPhase = %v, want %v", phase, want)
	}
}

func TestWriteTable4Rendering(t *testing.T) {
	var b strings.Builder
	WriteTable4(&b, []Table4Row{{System: "X", Cycles: 38, Clusters: 15, TP: 6, Cycles1: 23, Clusters1: 9, TP1: 6}})
	if !strings.Contains(b.String(), "38 (23)") || !strings.Contains(b.String(), "6 (6)") {
		t.Fatalf("render:\n%s", b.String())
	}
}

func TestMeasureOverheadShape(t *testing.T) {
	o := MeasureOverhead(kvstore.New())
	if o.Samples == 0 {
		t.Fatal("no samples")
	}
	if o.MinPct > o.AvgPct || o.AvgPct > o.MaxPct {
		t.Fatalf("ordering violated: %+v", o)
	}
	var b strings.Builder
	WriteOverhead(&b, []Overhead{o})
	if !strings.Contains(b.String(), "HBase") {
		t.Fatalf("render:\n%s", b.String())
	}
}
