package csnake

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"repro/internal/faults"
	"repro/internal/harness"
	"repro/internal/systems/dfs"
	"repro/internal/systems/kvstore"
	"repro/internal/systems/metastore"
	"repro/internal/systems/objstore"
	"repro/internal/systems/stream"
	"repro/internal/systems/sysreg"
)

func lightConfig(seed int64) Config {
	cfg := DefaultConfig(seed)
	cfg.Harness = harness.Config{
		Reps:            3,
		DelayMagnitudes: []time.Duration{500 * time.Millisecond, 2 * time.Second, 8 * time.Second},
	}
	return cfg
}

// TestCaseStudyEdgesViaHarness drives the §8.3.2 experiment pair through
// the real driver and checks both causal edges exist and stitch.
func TestCaseStudyEdgesViaHarness(t *testing.T) {
	sys := dfs.NewV2()
	d := harness.New(sys, sysreg.Space(sys), harness.Config{
		Reps: 3, DelayMagnitudes: []time.Duration{time.Second, 2 * time.Second}})
	d.Execute(dfs.PtNNIBRProcessLoop, "ibr_storm")
	d.Execute(dfs.PtDNIBRRPCIOE, "ibr_interval")
	var fwd, back bool
	for _, e := range d.Edges() {
		if e.From == dfs.PtNNIBRProcessLoop && e.To == dfs.PtDNIBRRPCIOE {
			fwd = true
		}
		if e.From == dfs.PtDNIBRRPCIOE && e.To == dfs.PtNNIBRProcessLoop {
			back = true
		}
	}
	if !fwd || !back {
		t.Fatalf("case-study edges missing: fwd=%v back=%v edges=%v", fwd, back, d.Edges())
	}
}

// TestCampaignDetectsSeededBugs runs full light campaigns on the smaller
// systems and requires the seeded ground-truth bugs to be found.
func TestCampaignDetectsSeededBugs(t *testing.T) {
	if testing.Short() {
		t.Skip("campaigns are heavyweight")
	}
	cases := []struct {
		sys  sysreg.System
		want []string
	}{
		{kvstore.New(), []string{"HBASE-1", "HBASE-2"}},
		{stream.New(), []string{"FLINK-1", "FLINK-2"}},
		{objstore.New(), []string{"OZONE-2", "OZONE-3"}},
	}
	for _, c := range cases {
		rep, err := NewCampaign(c.sys, WithConfig(lightConfig(42))).Run()
		if err != nil {
			t.Fatal(err)
		}
		got := map[string]bool{}
		for _, id := range DetectedBugs(rep, c.sys.Bugs()) {
			got[id] = true
		}
		for _, id := range c.want {
			if !got[id] {
				t.Errorf("%s: bug %s not detected (found %v, %d edges, %d cycles)",
					c.sys.Name(), id, DetectedBugs(rep, c.sys.Bugs()), len(rep.Edges), len(rep.Cycles))
			}
		}
	}
}

// TestCampaignHDFS2FindsMajority checks the HDFS 2 campaign finds at
// least half of the six seeded bugs under the light configuration (the
// full configuration finds more; budget scheduling is randomised).
func TestCampaignHDFS2FindsMajority(t *testing.T) {
	if testing.Short() {
		t.Skip("campaigns are heavyweight")
	}
	sys := dfs.NewV2()
	rep, err := NewCampaign(sys, WithConfig(lightConfig(42))).Run()
	if err != nil {
		t.Fatal(err)
	}
	found := DetectedBugs(rep, sys.Bugs())
	if len(found) < 3 {
		t.Fatalf("detected %v, want >= 3 of 6", found)
	}
	tp, total := TruePositiveClusters(rep, sys.Bugs())
	if tp == 0 || total == 0 {
		t.Fatalf("tp=%d total=%d", tp, total)
	}
	if rep.Alloc == nil || len(rep.Alloc.Clusters) == 0 {
		t.Fatal("missing 3PA result")
	}
}

// TestMetastoreCampaignDetectsStormsSerialParallel is the consensus
// target's acceptance regression: one light campaign against the
// Raft-style metadata store must deterministically stitch both seeded
// self-sustaining cycles -- the election-loop storm (RAFT-1) and the
// snapshot-transfer storm (RAFT-2) -- and a fully parallel campaign must
// be byte-identical to the serial one.
func TestMetastoreCampaignDetectsStormsSerialParallel(t *testing.T) {
	if testing.Short() {
		t.Skip("campaigns are heavyweight")
	}
	sys := metastore.New()
	runAt := func(par int) *Report {
		rep, err := NewCampaign(sys, WithConfig(lightConfig(42)), WithParallelism(par)).Run()
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	serial := runAt(1)
	parallel := runAt(8)

	got := map[string]bool{}
	for _, id := range DetectedBugs(serial, sys.Bugs()) {
		got[id] = true
	}
	for _, id := range []string{"RAFT-1", "RAFT-2"} {
		if !got[id] {
			t.Errorf("seeded storm %s not detected (found %v, %d edges, %d cycles)",
				id, DetectedBugs(serial, sys.Bugs()), len(serial.Edges), len(serial.Cycles))
		}
	}

	if serial.Sims != parallel.Sims {
		t.Fatalf("sim counts diverge: %d vs %d", serial.Sims, parallel.Sims)
	}
	if !reflect.DeepEqual(serial.Edges, parallel.Edges) {
		t.Fatal("edge sets diverge between serial and parallel campaigns")
	}
	if fmt.Sprintf("%+v", serial.Cycles) != fmt.Sprintf("%+v", parallel.Cycles) {
		t.Fatal("cycle sets diverge between serial and parallel campaigns")
	}
	if fmt.Sprintf("%+v", serial.CycleClusters) != fmt.Sprintf("%+v", parallel.CycleClusters) {
		t.Fatal("cycle clusters diverge between serial and parallel campaigns")
	}
	if !reflect.DeepEqual(DetectedBugs(serial, sys.Bugs()), DetectedBugs(parallel, sys.Bugs())) {
		t.Fatal("detected bug sets diverge between serial and parallel campaigns")
	}
}

// TestRandomProtocolRuns ensures the comparison protocol produces a
// well-formed report.
func TestRandomProtocolRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("campaigns are heavyweight")
	}
	cfg := lightConfig(7)
	cfg.Protocol = ProtocolRandom
	rep, err := NewCampaign(kvstore.New(), WithConfig(cfg)).Run()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Alloc != nil {
		t.Fatal("random protocol must not produce a 3PA result")
	}
	if len(rep.Runs) == 0 {
		t.Fatal("no runs")
	}
}

func TestNestGroups(t *testing.T) {
	space := faults.NewSpace([]faults.Point{
		{ID: "a.p", Kind: faults.Loop},
		{ID: "a.c1", Kind: faults.Loop},
		{ID: "a.c2", Kind: faults.Loop},
		{ID: "a.other", Kind: faults.Loop},
	}, []faults.LoopNest{{Parent: "a.p", Children: []faults.ID{"a.c1", "a.c2"}}})
	groups := NestGroups(space)
	if groups["a.p"] != groups["a.c1"] || groups["a.c1"] != groups["a.c2"] {
		t.Fatalf("nest family split: %v", groups)
	}
	if _, ok := groups["a.other"]; ok {
		t.Fatal("non-nested loop assigned to a family")
	}
}

func TestLabelMatchesCoreFaults(t *testing.T) {
	bug := sysreg.Bug{ID: "B1", CoreFaults: []faults.ID{"f.a", "f.b"}}
	rep := &Report{}
	if got := DetectedBugs(rep, []sysreg.Bug{bug}); len(got) != 0 {
		t.Fatalf("empty report detected %v", got)
	}
}
