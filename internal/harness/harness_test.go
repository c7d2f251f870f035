package harness

import (
	"context"
	"reflect"
	"runtime"
	"testing"
	"time"

	"repro/internal/core/alloc"
	"repro/internal/core/fca"
	"repro/internal/faults"
	"repro/internal/sim"
	"repro/internal/systems/dfs"
	"repro/internal/systems/sysreg"
)

func lightDriver(t *testing.T) *Driver {
	t.Helper()
	return lightDriverParallel(t, 1)
}

func lightDriverParallel(t *testing.T, parallelism int) *Driver {
	t.Helper()
	sys := dfs.NewV2()
	return New(sys, sysreg.Space(sys), Config{
		Reps: 2,
		// With only two reps and one magnitude the fixture is seed-marginal:
		// BaseSeed is pinned to a value whose plan seeds provoke the storm.
		BaseSeed:        2,
		DelayMagnitudes: []time.Duration{2 * time.Second},
		Parallelism:     parallelism,
	})
}

func TestProfileIsCached(t *testing.T) {
	d := lightDriver(t)
	a := d.Profile("basic_write")
	sims := d.SimCount()
	b := d.Profile("basic_write")
	if a != b {
		t.Fatal("profile set not cached")
	}
	if d.SimCount() != sims {
		t.Fatal("cached profile re-ran simulations")
	}
}

func TestTestsForUsesCoverage(t *testing.T) {
	d := lightDriver(t)
	tests := d.TestsFor(dfs.PtDNIBRRPCIOE)
	if len(tests) == 0 {
		t.Fatal("no covering tests for a core fault")
	}
	for _, ti := range tests {
		if ti.Coverage <= 0 {
			t.Fatalf("coverage = %d for %s", ti.Coverage, ti.Name)
		}
	}
	// The recovery-worker fault is only reachable in lease-recovery
	// workloads.
	rec := d.TestsFor(dfs.PtDNRecoveryIOE)
	for _, ti := range rec {
		switch ti.Name {
		case "lease_storm", "pipeline_recovery", "recovery_deadline", "write_retry":
		default:
			t.Errorf("unexpected covering test %q for recovery fault", ti.Name)
		}
	}
}

// TestTestsForUsesSharedCoverageCache pins the satellite fix: repeated
// coverage lookups mid-allocation must neither re-run profile simulations
// nor recompute anything -- once the cache is warm the sim counter stays
// put.
func TestTestsForUsesSharedCoverageCache(t *testing.T) {
	d := lightDriver(t)
	first := d.TestsFor(dfs.PtDNIBRRPCIOE)
	warm := d.SimCount()
	second := d.TestsFor(dfs.PtDNIBRRPCIOE)
	if d.SimCount() != warm {
		t.Fatalf("TestsFor re-ran simulations: %d -> %d", warm, d.SimCount())
	}
	if !reflect.DeepEqual(first, second) {
		t.Fatalf("coverage lookup unstable: %v vs %v", first, second)
	}
}

func TestExecuteAccumulatesEdgesAndMarks(t *testing.T) {
	d := lightDriver(t)
	d.Execute(dfs.PtNNIBRProcessLoop, "ibr_storm")
	g := d.Graph()
	marks := g.Marks()
	if len(marks) != 1 {
		t.Fatalf("marks = %v", marks)
	}
	if marks[0] == 0 {
		t.Fatal("no edges recorded for a storm-producing injection")
	}
	edges := g.Prefix(1).Edges()
	if len(edges) == 0 {
		t.Fatal("Graph().Prefix(1).Edges() empty")
	}
	if got := g.Prefix(0).Edges(); len(got) >= len(edges) {
		t.Fatalf("Graph().Prefix(0).Edges() = %d edges, want only static ones (< %d)", len(got), len(edges))
	}
}

// TestParallelExecuteMatchesSerial checks the driver's core guarantee:
// fanning the (magnitude x rep) grid across a pool changes nothing about
// the discovered edges or interference sets.
func TestParallelExecuteMatchesSerial(t *testing.T) {
	serial := lightDriverParallel(t, 1)
	parallel := lightDriverParallel(t, 8)
	for _, d := range []*Driver{serial, parallel} {
		d.Execute(dfs.PtNNIBRProcessLoop, "ibr_storm")
		d.Execute(dfs.PtDNIBRRPCIOE, "ibr_interval")
	}
	if !reflect.DeepEqual(serial.Edges(), parallel.Edges()) {
		t.Fatalf("edge sets diverge:\nserial:   %v\nparallel: %v", serial.Edges(), parallel.Edges())
	}
	if !reflect.DeepEqual(serial.Graph().Marks(), parallel.Graph().Marks()) {
		t.Fatalf("marks diverge: %v vs %v", serial.Graph().Marks(), parallel.Graph().Marks())
	}
	if serial.SimCount() != parallel.SimCount() {
		t.Fatalf("sim counts diverge: %d vs %d", serial.SimCount(), parallel.SimCount())
	}
}

// TestExecuteWaveMatchesSerialExecutes: a wave-driven driver accumulates
// exactly the graph a call-by-call one does, and the published delta
// names the wave's edges and faults.
func TestExecuteWaveMatchesSerialExecutes(t *testing.T) {
	wave := []alloc.PlannedRun{
		{Fault: dfs.PtNNIBRProcessLoop, Test: "ibr_storm", Phase: alloc.Phase1},
		{Fault: dfs.PtDNIBRRPCIOE, Test: "ibr_interval", Phase: alloc.Phase1},
	}

	ref := lightDriver(t)
	var refIntf [][]faults.ID
	for _, pr := range wave {
		refIntf = append(refIntf, ref.Execute(pr.Fault, pr.Test))
	}

	d := lightDriver(t)
	recs, delta := d.ExecuteWave(wave)
	if len(recs) != len(wave) {
		t.Fatalf("records = %d, want %d", len(recs), len(wave))
	}
	for i, r := range recs {
		if r.Fault != wave[i].Fault || r.Test != wave[i].Test || r.Phase != wave[i].Phase {
			t.Fatalf("record %d = %+v, want plan %+v", i, r, wave[i])
		}
		if !reflect.DeepEqual(r.Intf, refIntf[i]) {
			t.Fatalf("record %d interference diverges from serial Execute", i)
		}
	}
	if !reflect.DeepEqual(d.Edges(), ref.Edges()) {
		t.Fatal("wave-driven edge set diverges from serial Executes")
	}
	if !reflect.DeepEqual(d.Graph().Marks(), ref.Graph().Marks()) {
		t.Fatal("wave-driven marks diverge from serial Executes")
	}

	if delta.FromSeq != 0 || delta.ToSeq != d.Graph().RawLen() {
		t.Fatalf("delta window [%d, %d) does not span the wave", delta.FromSeq, delta.ToSeq)
	}
	if delta.New == 0 || len(delta.Edges) == 0 || len(delta.Faults) == 0 {
		t.Fatalf("empty delta for an edge-producing wave: %+v", delta)
	}

	// A second wave's delta covers only its own window.
	recs2, delta2 := d.ExecuteWave(wave[:0])
	if len(recs2) != 0 || !delta2.Empty() {
		t.Fatalf("empty wave produced work: %v %+v", recs2, delta2)
	}
}

// TestCancelledDriverStopsSimulating checks that a cancelled context makes
// Execute a cheap no-op that still keeps mark bookkeeping aligned.
func TestCancelledDriverStopsSimulating(t *testing.T) {
	d := lightDriver(t)
	ctx, cancel := context.WithCancel(context.Background())
	d.Bind(ctx)
	d.Execute(dfs.PtNNIBRProcessLoop, "ibr_storm")
	sims := d.SimCount()
	cancel()
	if got := d.Execute(dfs.PtDNIBRRPCIOE, "ibr_interval"); got != nil {
		t.Fatalf("cancelled Execute returned interference %v", got)
	}
	if d.SimCount() != sims {
		t.Fatalf("cancelled Execute ran %d simulations", d.SimCount()-sims)
	}
	if marks := d.Graph().Marks(); len(marks) != 2 {
		t.Fatalf("marks not aligned with Execute calls: %v", marks)
	}
}

func TestOverheadSampleMeasuresBothModes(t *testing.T) {
	d := lightDriver(t)
	inst, bare := d.OverheadSample("quiet_baseline", 3)
	if inst <= 0 || bare <= 0 {
		t.Fatalf("inst=%v bare=%v", inst, bare)
	}
}

func TestUnknownWorkloadPanics(t *testing.T) {
	d := lightDriver(t)
	defer func() {
		if recover() == nil {
			t.Fatal("want panic for unknown workload")
		}
	}()
	d.Profile("nope")
}

func TestFanOutCoversAllIndices(t *testing.T) {
	for _, par := range []int{0, 1, 3, 16} {
		hits := make([]int, 40)
		FanOut(par, len(hits), func(i int) { hits[i]++ })
		for i, h := range hits {
			if h != 1 {
				t.Fatalf("parallelism %d: index %d ran %d times", par, i, h)
			}
		}
	}
}

// legacyRecorder replays the seed-era edge accounting: it collects the
// raw (pre-dedup) dynamic edge stream through the observer, so tests can
// recompute what the legacy copy-and-rededup EdgesUpTo produced.
type legacyRecorder struct {
	raw []fca.Edge
}

func (r *legacyRecorder) ProfileCached(string, int)                      {}
func (r *legacyRecorder) ExperimentExecuted(faults.ID, string, int, int) {}
func (r *legacyRecorder) EdgeDiscovered(e fca.Edge)                      { r.raw = append(r.raw, e) }

// TestEdgesUpToMatchesSeedSemantics pins the graph-backed prefix
// snapshots against the seed semantics on a real campaign slice: for
// every experiment count n, Graph().Prefix(n).Edges() -- a prefix of the
// sealed snapshot a report carries, which is what phase attribution
// reads -- must equal Dedup(raw[:marks[n-1]] ++ StaticLoopEdges), the
// legacy formula.
func TestEdgesUpToMatchesSeedSemantics(t *testing.T) {
	sys := dfs.NewV2()
	space := sysreg.Space(sys)
	d := New(sys, space, Config{
		Reps: 2, DelayMagnitudes: []time.Duration{2 * time.Second}})
	rec := &legacyRecorder{}
	d.Observe(rec)
	d.Execute(dfs.PtNNIBRProcessLoop, "ibr_storm")
	d.Execute(dfs.PtDNIBRRPCIOE, "ibr_interval")
	d.Execute(dfs.PtDNIBRRPCIOE, "ibr_storm")
	g := d.Graph()
	marks := g.Marks()
	if len(marks) != 3 {
		t.Fatalf("marks = %v", marks)
	}
	if marks[len(marks)-1] != len(rec.raw) {
		t.Fatalf("observer saw %d raw edges, marks end at %d", len(rec.raw), marks[len(marks)-1])
	}
	static := fca.StaticLoopEdges(space)
	for n := 0; n <= len(marks); n++ {
		cut := 0
		if n > 0 {
			cut = marks[n-1]
		}
		want := fca.Dedup(append(append([]fca.Edge(nil), rec.raw[:cut]...), static...))
		got := g.Prefix(n).Edges()
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("Graph().Prefix(%d).Edges() diverges from seed semantics: got %d edges, want %d\ngot:  %v\nwant: %v",
				n, len(got), len(want), got, want)
		}
	}
}

// TestSaltOfNonNegative pins the uint64 hardening: salts are always in
// [0, 1e9+7) regardless of input.
func TestSaltOfNonNegative(t *testing.T) {
	inputs := [][2]string{
		{"", ""}, {"a", "b"}, {"ibr_storm", "dfs.dn.ibr.rpc_ioe"},
		{"\xff\xfe", "\x00"}, {"long", "longer-still-longer"},
	}
	for _, in := range inputs {
		s := saltOf(in[0], in[1])
		if s < 0 || s >= 1_000_000_007 {
			t.Errorf("saltOf(%q, %q) = %d, out of range", in[0], in[1], s)
		}
	}
}

// panicSystem is HDFS 2 with one workload whose simulation panics while
// other processes of the same engine are parked.
type panicSystem struct{ sysreg.System }

func (panicSystem) Workloads() []sysreg.Workload {
	return []sysreg.Workload{{
		Name:    "boom",
		Horizon: time.Minute,
		Run: func(ctx *sysreg.RunContext) {
			mb := ctx.Engine.NewMailbox("n1", "never")
			for i := 0; i < 4; i++ {
				ctx.Engine.Spawn("n1", "waiter", func(p *sim.Proc) { p.Recv(mb, -1) })
			}
			ctx.Engine.Spawn("n2", "boom", func(p *sim.Proc) {
				p.Sleep(time.Second)
				panic("boom")
			})
		},
	}}
}

// TestPanickingRunReleasesProcs: a run whose process panics still closes
// its engine, so recovering the panic (as csnaked does per job) leaves no
// parked processes behind.
func TestPanickingRunReleasesProcs(t *testing.T) {
	for _, par := range []int{1, 2} {
		sys := panicSystem{dfs.NewV2()}
		d := New(sys, sysreg.Space(sys), Config{Reps: 3, Parallelism: par})
		base := runtime.NumGoroutine()
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("want the process panic on the caller")
				}
			}()
			d.Profile("boom")
		}()
		n := runtime.NumGoroutine()
		for i := 0; i < 100 && n > base; i++ {
			time.Sleep(10 * time.Millisecond)
			n = runtime.NumGoroutine()
		}
		if n > base {
			t.Fatalf("parallelism %d: %d goroutines after the recovered panic, baseline %d", par, n, base)
		}
	}
}
