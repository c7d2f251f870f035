package csnake

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core/beam"
	"repro/internal/core/fca"
	"repro/internal/core/graph"
	"repro/internal/faults"
	"repro/internal/harness"
	"repro/internal/sim"
	"repro/internal/systems/kvstore"
	"repro/internal/systems/sysreg"
)

// --- a tiny, fast target system for campaign-level tests ---

const (
	tinyWorkLoop faults.ID = "tiny.worker.loop"
	tinyJobIOE   faults.ID = "tiny.job.deadline_ioe"
)

type tinyJob struct{ deadline time.Duration }

type tinySystem struct{}

func (tinySystem) Name() string { return "TinyTest" }
func (tinySystem) Points() []faults.Point {
	return []faults.Point{
		{ID: tinyWorkLoop, Kind: faults.Loop, System: "TinyTest", Func: "worker", BodySize: 10, HasIO: true},
		{ID: tinyJobIOE, Kind: faults.Throw, System: "TinyTest", Func: "worker"},
	}
}
func (tinySystem) Nests() []faults.LoopNest { return nil }
func (tinySystem) SourceDirs() []string     { return nil }
func (tinySystem) Bugs() []sysreg.Bug {
	return []sysreg.Bug{{
		ID: "TINY-1", Title: "Front-of-queue retry",
		CoreFaults: []faults.ID{tinyWorkLoop, tinyJobIOE},
		Delays:     1, Exceptions: 1, SingleTest: true,
	}}
}
func (tinySystem) Workloads() []sysreg.Workload {
	run := func(jobs int, gap time.Duration) func(ctx *sysreg.RunContext) {
		return func(ctx *sysreg.RunContext) {
			eng, rt := ctx.Engine, ctx.RT
			q := eng.NewMailbox("srv", "jobs")
			eng.Spawn("srv", "worker", func(p *sim.Proc) {
				defer rt.Fn(p, "worker")()
				for {
					m, ok := p.Recv(q, -1)
					if !ok {
						return
					}
					j := m.(tinyJob)
					rt.Loop(p, tinyWorkLoop)
					p.Work(300 * time.Millisecond)
					if rt.Guard(p, tinyJobIOE, p.Now() > j.deadline) {
						p.Send(q, tinyJob{deadline: p.Now() + 200*time.Millisecond})
					}
				}
			})
			eng.Spawn("cli", "producer", func(p *sim.Proc) {
				for i := 0; i < jobs; i++ {
					p.Send(q, tinyJob{deadline: p.Now() + 2*time.Second})
					p.Sleep(gap)
				}
			})
		}
	}
	return []sysreg.Workload{
		{Name: "burst", Desc: "a burst of jobs", Horizon: 30 * time.Second, Run: run(12, 450*time.Millisecond)},
		{Name: "trickle", Desc: "a slow trickle", Horizon: 30 * time.Second, Run: run(6, 2*time.Second)},
	}
}

func tinyOpts() []Option {
	return []Option{
		WithSeed(7),
		WithReps(3),
		WithDelayMagnitudes(200*time.Millisecond, time.Second),
	}
}

// --- option application and defaulting ---

func TestCampaignDefaults(t *testing.T) {
	c := NewCampaign(tinySystem{})
	if got, want := c.Config(), DefaultConfig(42); !reflect.DeepEqual(got, want) {
		t.Fatalf("default config = %+v, want %+v", got, want)
	}
	if c.Parallelism() != 1 {
		t.Fatalf("default parallelism = %d, want 1", c.Parallelism())
	}
	if c.System().Name() != "TinyTest" {
		t.Fatalf("system = %q", c.System().Name())
	}
}

func TestCampaignOptionsApply(t *testing.T) {
	fcaCfg := fca.DefaultConfig()
	fcaCfg.PValue = 0.01
	c := NewCampaign(tinySystem{},
		WithSeed(99),
		WithReps(3),
		WithDelayMagnitudes(time.Second, 2*time.Second),
		WithBaseSeed(17),
		WithBudgetFactor(5),
		WithClusterThreshold(0.25),
		WithBeam(beam.Options{MaxLen: 4}),
		WithProtocol(ProtocolRandom),
		WithFCA(fcaCfg),
		WithParallelism(6),
	)
	cfg := c.Config()
	if cfg.Seed != 99 || cfg.Harness.Reps != 3 || cfg.Harness.BaseSeed != 17 {
		t.Fatalf("seed/reps/baseseed wrong: %+v", cfg)
	}
	if !reflect.DeepEqual(cfg.Harness.DelayMagnitudes, []time.Duration{time.Second, 2 * time.Second}) {
		t.Fatalf("magnitudes = %v", cfg.Harness.DelayMagnitudes)
	}
	if cfg.BudgetFactor != 5 || cfg.ClusterThreshold != 0.25 || cfg.Beam.MaxLen != 4 {
		t.Fatalf("budget/threshold/beam wrong: %+v", cfg)
	}
	if cfg.Protocol != ProtocolRandom || cfg.Harness.FCA.PValue != 0.01 {
		t.Fatalf("protocol/fca wrong: %+v", cfg)
	}
	if c.Parallelism() != 6 {
		t.Fatalf("parallelism = %d", c.Parallelism())
	}
}

func TestCampaignInvalidOptionValuesIgnored(t *testing.T) {
	c := NewCampaign(tinySystem{},
		WithReps(5),
		WithReps(0),          // no-op: keeps 5 (the -fast composition fix)
		WithBudgetFactor(-1), // no-op
		WithDelayMagnitudes(),
		WithParallelism(-3), // clamps to serial
		WithContext(nil),    // keeps Background
	)
	cfg := c.Config()
	if cfg.Harness.Reps != 5 {
		t.Fatalf("WithReps(0) clobbered reps: %d", cfg.Harness.Reps)
	}
	if cfg.BudgetFactor != DefaultConfig(42).BudgetFactor {
		t.Fatalf("WithBudgetFactor(-1) clobbered budget: %d", cfg.BudgetFactor)
	}
	if len(cfg.Harness.DelayMagnitudes) != len(DefaultConfig(42).Harness.DelayMagnitudes) {
		t.Fatalf("empty WithDelayMagnitudes clobbered sweep: %v", cfg.Harness.DelayMagnitudes)
	}
	if c.Parallelism() != 1 {
		t.Fatalf("parallelism = %d, want 1", c.Parallelism())
	}
}

// --- observer event stream ---

type eventRecorder struct {
	mu           sync.Mutex
	events       []string
	onExperiment func(n int)
	experiments  int
}

func (r *eventRecorder) add(e string) {
	r.mu.Lock()
	r.events = append(r.events, e)
	r.mu.Unlock()
}

func (r *eventRecorder) ProfileCached(test string, sims int) { r.add("profile:" + test) }
func (r *eventRecorder) ExperimentExecuted(f faults.ID, test string, edges, intf int) {
	r.add(fmt.Sprintf("experiment:%s@%s", f, test))
	r.mu.Lock()
	r.experiments++
	n, cb := r.experiments, r.onExperiment
	r.mu.Unlock()
	if cb != nil {
		cb(n)
	}
}
func (r *eventRecorder) EdgeDiscovered(e fca.Edge)          { r.add("edge") }
func (r *eventRecorder) CampaignStarted(s string, n, b int) { r.add("started:" + s) }
func (r *eventRecorder) CycleFound(c beam.Cycle)            { r.add("cycle") }
func (r *eventRecorder) CampaignFinished(rep *Report)       { r.add("finished") }
func (r *eventRecorder) RoundCompleted(rd Round)            { r.add(fmt.Sprintf("round:%d", rd.Round)) }

func (r *eventRecorder) snapshot() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]string(nil), r.events...)
}

func TestObserverEventOrdering(t *testing.T) {
	rec := &eventRecorder{}
	rep, err := NewCampaign(tinySystem{}, append(tinyOpts(), WithObserver(rec))...).Run()
	if err != nil {
		t.Fatal(err)
	}
	events := rec.snapshot()
	if len(events) == 0 {
		t.Fatal("no events")
	}
	if events[0] != "started:TinyTest" {
		t.Fatalf("first event = %q, want campaign start", events[0])
	}
	if events[len(events)-1] != "finished" {
		t.Fatalf("last event = %q, want finished", events[len(events)-1])
	}
	var profiles, experiments, edges, cycles int
	firstExperiment, lastProfile, lastExperiment, firstCycle := -1, -1, -1, -1
	for i, e := range events {
		switch {
		case e == "started:TinyTest", e == "finished":
		case e == "edge":
			edges++
		case e == "cycle":
			cycles++
			if firstCycle == -1 {
				firstCycle = i
			}
		case len(e) > 8 && e[:8] == "profile:":
			profiles++
			lastProfile = i
		default:
			experiments++
			lastExperiment = i
			if firstExperiment == -1 {
				firstExperiment = i
			}
		}
	}
	if profiles != 2 {
		t.Fatalf("profiles = %d, want one per workload", profiles)
	}
	if experiments == 0 || edges == 0 || cycles == 0 {
		t.Fatalf("experiments=%d edges=%d cycles=%d, want all > 0", experiments, edges, cycles)
	}
	// Serial campaign: all profiles cached before the first experiment,
	// all cycles reported after the last experiment.
	if lastProfile > firstExperiment {
		t.Fatalf("profile event at %d after first experiment at %d", lastProfile, firstExperiment)
	}
	if firstCycle < lastExperiment {
		t.Fatalf("cycle event at %d before last experiment at %d", firstCycle, lastExperiment)
	}
	if len(rep.Cycles) != cycles {
		t.Fatalf("CycleFound fired %d times for %d cycles", cycles, len(rep.Cycles))
	}

	// Per-round campaigns: round k is delivered after every experiment of
	// wave k and before any of wave k+1, whoever else consumes the round.
	perRound := []struct {
		name string
		opts []Option
	}{
		{"anytime", []Option{WithAnytime()}},
		{"early-stop", []Option{WithEarlyStop(2)}},
		{"checkpoints", []Option{WithAnytime(), WithCheckpoints(func(*Checkpoint) {})}},
	}
	for _, mode := range perRound {
		for _, par := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s-p%d", mode.name, par), func(t *testing.T) {
				rec := &eventRecorder{}
				opts := append(tinyOpts(), WithWaveSize(3), WithParallelism(par), WithObserver(rec))
				rep, err := NewCampaign(tinySystem{}, append(opts, mode.opts...)...).Run()
				if err != nil {
					t.Fatal(err)
				}
				if len(rep.Rounds) < 2 {
					t.Fatalf("%d rounds; need at least 2 to order a round against the next wave", len(rep.Rounds))
				}
				var seen, due, next int
				for _, e := range rec.snapshot() {
					switch {
					case strings.HasPrefix(e, "experiment:"):
						seen++
					case strings.HasPrefix(e, "round:"):
						if next == len(rep.Rounds) {
							t.Fatalf("%s beyond the report's %d rounds", e, len(rep.Rounds))
						}
						due += rep.Rounds[next].Runs
						next++
						if want := fmt.Sprintf("round:%d", next); e != want {
							t.Fatalf("got %s, want %s", e, want)
						}
						if seen != due {
							t.Fatalf("%s delivered after %d experiments, its wave ends at %d", e, seen, due)
						}
					}
				}
				if next != len(rep.Rounds) {
					t.Fatalf("%d round events for %d rounds", next, len(rep.Rounds))
				}
			})
		}
	}
}

// --- context cancellation ---

func TestContextCancellationMidCampaign(t *testing.T) {
	// A full reference run, to compare effort against.
	full, err := NewCampaign(tinySystem{}, tinyOpts()...).Run()
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	rec := &eventRecorder{onExperiment: func(n int) {
		if n == 1 {
			cancel()
		}
	}}
	rep, err := NewCampaign(tinySystem{},
		append(tinyOpts(), WithContext(ctx), WithObserver(rec))...).Run()
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if rep == nil {
		t.Fatal("cancelled campaign returned no partial report")
	}
	if rep.Sims >= full.Sims {
		t.Fatalf("cancelled campaign simulated %d runs, full campaign %d", rep.Sims, full.Sims)
	}
	if rep.Cycles != nil {
		t.Fatalf("cancelled campaign reported cycles: %v", rep.Cycles)
	}
	// Progress streams: at parallelism 1 every experiment is sealed (and
	// its event delivered) before the next one starts simulating, so a
	// cancellation raised from the first event lets no second experiment
	// run -- although a batch wave spans the whole of phase one.
	if n := len(rep.Runs); n < 2 {
		t.Fatalf("cancelled wave has %d runs; need at least 2 to tell streaming from sealing at the end", n)
	}
	if rec.experiments != 1 {
		t.Fatalf("%d experiments reported after cancelling from the first event, want 1", rec.experiments)
	}
	for _, e := range rec.snapshot() {
		if e == "finished" {
			t.Fatal("CampaignFinished fired for a cancelled campaign")
		}
	}
}

// --- determinism: parallel == serial ---

func TestParallelCampaignIsDeterministic(t *testing.T) {
	runAt := func(par int) *Report {
		rep, err := NewCampaign(tinySystem{}, append(tinyOpts(), WithParallelism(par))...).Run()
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	serial := runAt(1)
	parallel := runAt(8)

	if !reflect.DeepEqual(serial.Edges, parallel.Edges) {
		t.Fatalf("edge sets diverge:\nserial:   %v\nparallel: %v", serial.Edges, parallel.Edges)
	}
	if fmt.Sprintf("%v", serial.Cycles) != fmt.Sprintf("%v", parallel.Cycles) {
		t.Fatalf("cycles diverge:\nserial:   %v\nparallel: %v", serial.Cycles, parallel.Cycles)
	}
	if !reflect.DeepEqual(serial.Runs, parallel.Runs) {
		t.Fatal("run schedules diverge")
	}
	if len(serial.CycleClusters) != len(parallel.CycleClusters) {
		t.Fatalf("cluster counts diverge: %d vs %d", len(serial.CycleClusters), len(parallel.CycleClusters))
	}
	for i := range serial.CycleClusters {
		if fmt.Sprintf("%v", serial.CycleClusters[i].Cycles) != fmt.Sprintf("%v", parallel.CycleClusters[i].Cycles) {
			t.Fatalf("cluster %d diverges", i)
		}
	}
	if serial.Sims != parallel.Sims {
		t.Fatalf("sim counts diverge: %d vs %d", serial.Sims, parallel.Sims)
	}
	if !reflect.DeepEqual(DetectedBugs(serial, tinySystem{}.Bugs()), DetectedBugs(parallel, tinySystem{}.Bugs())) {
		t.Fatal("detected bug sets diverge")
	}
}

// TestRealSystemCampaignParallelByteIdentical pins the hot-path rewrite
// (pooled trace runs, value event queue, interned occurrence stacks)
// against the PR 1 guarantee on a real system: a fully parallel campaign
// produces a byte-identical report to the serial one.
func TestRealSystemCampaignParallelByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("full real-system campaign skipped in -short mode")
	}
	cfg := DefaultConfig(42)
	cfg.Harness = harness.Config{Reps: 2, DelayMagnitudes: []time.Duration{2 * time.Second}}
	runAt := func(par int) *Report {
		rep, err := NewCampaign(kvstore.New(), WithConfig(cfg), WithParallelism(par)).Run()
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	serial := runAt(1)
	parallel := runAt(8)
	if serial.Sims != parallel.Sims {
		t.Fatalf("sim counts diverge: %d vs %d", serial.Sims, parallel.Sims)
	}
	if !reflect.DeepEqual(serial.Edges, parallel.Edges) {
		t.Fatalf("edge sets diverge:\nserial:   %v\nparallel: %v", serial.Edges, parallel.Edges)
	}
	if fmt.Sprintf("%+v", serial.Cycles) != fmt.Sprintf("%+v", parallel.Cycles) {
		t.Fatal("cycle sets diverge")
	}
	if fmt.Sprintf("%+v", serial.CycleClusters) != fmt.Sprintf("%+v", parallel.CycleClusters) {
		t.Fatal("cycle clusters diverge")
	}
}

// TestGraphRoundTripResearch pins the persistence acceptance criterion:
// a campaign's causal graph serialized to JSON, loaded back, and
// re-searched with the persisted SimScores and nest families yields
// exactly the in-process cycle signatures (and scores).
func TestGraphRoundTripResearch(t *testing.T) {
	rep, err := NewCampaign(tinySystem{}, tinyOpts()...).Run()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Graph == nil {
		t.Fatal("report carries no graph")
	}
	if len(rep.Cycles) == 0 {
		t.Fatal("tiny campaign found no cycles; round trip untestable")
	}
	data, err := json.Marshal(rep.Graph)
	if err != nil {
		t.Fatal(err)
	}
	loaded := graph.New()
	if err := json.Unmarshal(data, loaded); err != nil {
		t.Fatal(err)
	}
	if loaded.System() != rep.System {
		t.Fatalf("system = %q, want %q", loaded.System(), rep.System)
	}
	// nil score fn and NestGroups: the offline search must reconstruct
	// both from the persisted annotations alone.
	offline := beam.SearchGraph(loaded, nil, beam.Options{})
	if len(offline) != len(rep.Cycles) {
		t.Fatalf("offline cycles = %d, in-process = %d", len(offline), len(rep.Cycles))
	}
	for i := range offline {
		if offline[i].Signature() != rep.Cycles[i].Signature() {
			t.Fatalf("cycle %d signature diverges:\noffline:    %s\nin-process: %s",
				i, offline[i].Signature(), rep.Cycles[i].Signature())
		}
		if offline[i].Score != rep.Cycles[i].Score {
			t.Fatalf("cycle %d score diverges: %v vs %v", i, offline[i].Score, rep.Cycles[i].Score)
		}
	}
}

// TestReportGraphMatchesEdges: the materialized edge slice and the graph
// must stay two views of the same artifact.
func TestReportGraphMatchesEdges(t *testing.T) {
	rep, err := NewCampaign(tinySystem{}, tinyOpts()...).Run()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rep.Edges, rep.Graph.Edges()) {
		t.Fatal("Report.Edges diverges from Report.Graph.Edges()")
	}
}

// TestCustomNestGroupsPersistToGraph: a caller-supplied Beam.NestGroups
// override must be what the persisted graph carries, so the offline
// re-search filters with the same families as the in-process one.
func TestCustomNestGroupsPersistToGraph(t *testing.T) {
	custom := map[faults.ID]int{tinyWorkLoop: 7}
	rep, err := NewCampaign(tinySystem{},
		append(tinyOpts(), WithBeam(beam.Options{NestGroups: custom}))...).Run()
	if err != nil {
		t.Fatal(err)
	}
	got := rep.Graph.NestGroups()
	if got[tinyWorkLoop] != 7 {
		t.Fatalf("persisted nest groups = %v, want the caller's override", got)
	}
}
