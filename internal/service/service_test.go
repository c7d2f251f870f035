package service

import (
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core/csnake"
	"repro/internal/faults"
	"repro/internal/monitor"
	"repro/internal/report"
	"repro/internal/sim"
	"repro/internal/systems/sysreg"
)

// --- test systems ---------------------------------------------------------
//
// svc-tiny is the csnake test suite's tiny retry-loop system, registered
// so specs can resolve it; svc-crash panics inside its workload, for the
// crash-isolation tests.

const (
	tinyWorkLoop faults.ID = "svct.worker.loop"
	tinyJobIOE   faults.ID = "svct.job.deadline_ioe"
)

type tinyJob struct{ deadline time.Duration }

type tinySystem struct{}

func (tinySystem) Name() string { return "svc-tiny" }
func (tinySystem) Points() []faults.Point {
	return []faults.Point{
		{ID: tinyWorkLoop, Kind: faults.Loop, System: "svc-tiny", Func: "worker", BodySize: 10, HasIO: true},
		{ID: tinyJobIOE, Kind: faults.Throw, System: "svc-tiny", Func: "worker"},
	}
}
func (tinySystem) Nests() []faults.LoopNest { return nil }
func (tinySystem) SourceDirs() []string     { return nil }
func (tinySystem) Bugs() []sysreg.Bug {
	return []sysreg.Bug{{
		ID: "SVCT-1", Title: "Front-of-queue retry",
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

type crashSystem struct{ tinySystem }

func (crashSystem) Name() string { return "svc-crash" }
func (crashSystem) Workloads() []sysreg.Workload {
	return []sysreg.Workload{{
		Name: "boom", Desc: "panics immediately", Horizon: time.Second,
		Run: func(ctx *sysreg.RunContext) {
			ctx.Engine.Spawn("srv", "bomb", func(p *sim.Proc) {
				panic("workload exploded")
			})
		},
	}}
}

func init() {
	sysreg.Register("svc-tiny", func() sysreg.System { return tinySystem{} })
	sysreg.Register("svc-crash", func() sysreg.System { return crashSystem{} })
}

func tinySpec(seed int64) CampaignSpec {
	return CampaignSpec{
		System:            "svc-tiny",
		Seed:              &seed,
		Reps:              3,
		DelayMagnitudesMS: []int64{200, 1000},
	}
}

func newTestManager(t *testing.T, cfg Config) *Manager {
	t.Helper()
	m, err := NewManager(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Close)
	return m
}

// --- spec resolution ------------------------------------------------------

func TestSpecResolve(t *testing.T) {
	for _, tc := range []struct {
		name string
		spec CampaignSpec
		ok   bool
	}{
		{"minimal", CampaignSpec{System: "svc-tiny"}, true},
		{"full", CampaignSpec{System: "svc-tiny", Reps: 3, WaveSize: 4, EarlyStopRounds: 2, Protocol: "adaptive"}, true},
		{"unknown system", CampaignSpec{System: "no-such-system"}, false},
		{"bad protocol", CampaignSpec{System: "svc-tiny", Protocol: "psychic"}, false},
		{"bad magnitude", CampaignSpec{System: "svc-tiny", DelayMagnitudesMS: []int64{-5}}, false},
	} {
		_, _, err := tc.spec.Resolve()
		if (err == nil) != tc.ok {
			t.Errorf("%s: err = %v, want ok=%v", tc.name, err, tc.ok)
		}
	}
}

// --- job lifecycle --------------------------------------------------------

func TestJobLifecycle(t *testing.T) {
	m := newTestManager(t, Config{Workers: 2, MaxJobs: 2})
	st, err := m.Submit(tinySpec(7))
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StateQueued && st.State != StateRunning {
		t.Fatalf("fresh job state = %s", st.State)
	}
	final, err := m.Await(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != StateSucceeded {
		t.Fatalf("state = %s (%s), want succeeded", final.State, final.Error)
	}
	if final.Sims == 0 {
		t.Fatal("no simulations recorded")
	}
	if final.GraphID == "" {
		t.Fatal("succeeded job has no graph artifact")
	}
	if final.Finished == nil || final.Started == nil {
		t.Fatal("missing timestamps")
	}
	rep, _, err := m.Report(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if rep.System != "svc-tiny" || rep.Schema != report.JSONSchema {
		t.Fatalf("report header: system=%q schema=%d", rep.System, rep.Schema)
	}
	if final.Sims != rep.Sims {
		t.Fatalf("status says %d sims, the report %d", final.Sims, rep.Sims)
	}
	if len(rep.DetectedBugs) == 0 || rep.DetectedBugs[0] != "SVCT-1" {
		t.Fatalf("detected bugs = %v, want [SVCT-1]", rep.DetectedBugs)
	}
	// The stored graph round-trips.
	g, err := m.Store().Load(final.GraphID)
	if err != nil {
		t.Fatal(err)
	}
	if g.Len() != rep.Edges {
		t.Fatalf("stored graph has %d edges, report says %d", g.Len(), rep.Edges)
	}
}

func TestReportBeforeFinish(t *testing.T) {
	m := newTestManager(t, Config{Workers: 1, MaxJobs: 1})
	// Occupy the only slot so the second job stays queued.
	a, err := m.Submit(tinySpec(7))
	if err != nil {
		t.Fatal(err)
	}
	b, err := m.Submit(tinySpec(8))
	if err != nil {
		t.Fatal(err)
	}
	if _, st, err := m.Report(b.ID); err == nil {
		t.Fatalf("report of unfinished job succeeded (state %s)", st.State)
	}
	if _, _, err := m.Report("job-999"); err == nil {
		t.Fatal("report of unknown job succeeded")
	}
	m.Await(a.ID)
	m.Await(b.ID)
}

func TestUnknownJobErrors(t *testing.T) {
	m := newTestManager(t, Config{})
	if _, err := m.Status("job-404"); err == nil {
		t.Fatal("Status on unknown job succeeded")
	}
	if _, err := m.Cancel("job-404"); err == nil {
		t.Fatal("Cancel on unknown job succeeded")
	}
	if _, _, err := m.Subscribe("job-404"); err == nil {
		t.Fatal("Subscribe on unknown job succeeded")
	}
	if _, err := m.Submit(CampaignSpec{System: "no-such-system"}); err == nil {
		t.Fatal("Submit of invalid spec succeeded")
	}
}

// --- shared-budget determinism --------------------------------------------

// TestConcurrentJobsByteIdentical is the service determinism contract:
// N campaigns racing each other through one contended worker pool
// produce reports byte-identical to the same campaigns run in
// isolation. Run under -race this also exercises the manager, pool, and
// fan-out for data races.
func TestConcurrentJobsByteIdentical(t *testing.T) {
	specs := []CampaignSpec{
		tinySpec(7),
		tinySpec(8),
		func() CampaignSpec { s := tinySpec(9); s.WaveSize = 3; return s }(),
		func() CampaignSpec { s := tinySpec(10); s.Anytime = true; s.EarlyStopRounds = 2; return s }(),
	}

	// Isolated baseline: each campaign alone, no shared pool.
	want := make([][]byte, len(specs))
	for i, spec := range specs {
		sys, opts, err := spec.Resolve()
		if err != nil {
			t.Fatal(err)
		}
		rep, err := csnake.NewCampaign(sys, opts...).Run()
		if err != nil {
			t.Fatal(err)
		}
		want[i], err = json.Marshal(report.NewJSON(rep, sys.Bugs()))
		if err != nil {
			t.Fatal(err)
		}
	}

	// All four at once, two worker tokens between them.
	m := newTestManager(t, Config{Workers: 2, MaxJobs: len(specs)})
	ids := make([]string, len(specs))
	var wg sync.WaitGroup
	for i, spec := range specs {
		st, err := m.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = st.ID
		wg.Add(1)
		go func(id string) {
			defer wg.Done()
			m.Await(id)
		}(st.ID)
	}
	wg.Wait()

	for i, id := range ids {
		rep, st, err := m.Report(id)
		if err != nil {
			t.Fatalf("job %s: %v (state %s)", id, err, st.State)
		}
		got, err := json.Marshal(rep)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != string(want[i]) {
			t.Errorf("job %s (spec %d): served report differs from isolated run\n got: %s\nwant: %s",
				id, i, got, want[i])
		}
	}
	if m.Pool().InUse() != 0 {
		t.Fatalf("pool leaked %d tokens", m.Pool().InUse())
	}
}

// --- queueing, priority, cancellation -------------------------------------

func TestQueuePriorityOrder(t *testing.T) {
	m := newTestManager(t, Config{Workers: 1, MaxJobs: 1})
	a, err := m.Submit(tinySpec(7)) // occupies the slot (or finishes fast; either way b/c order is what matters)
	if err != nil {
		t.Fatal(err)
	}
	lo := tinySpec(8)
	hi := tinySpec(9)
	hi.Priority = 5
	b, err := m.Submit(lo)
	if err != nil {
		t.Fatal(err)
	}
	c, err := m.Submit(hi)
	if err != nil {
		t.Fatal(err)
	}
	// If both are still queued, the high-priority job is ahead.
	bs, _ := m.Status(b.ID)
	cs, _ := m.Status(c.ID)
	if bs.State == StateQueued && cs.State == StateQueued && bs.QueuePosition <= cs.QueuePosition {
		t.Fatalf("queue positions: low-pri=%d high-pri=%d", bs.QueuePosition, cs.QueuePosition)
	}
	for _, id := range []string{a.ID, b.ID, c.ID} {
		if st, err := m.Await(id); err != nil || st.State != StateSucceeded {
			t.Fatalf("job %s: state=%v err=%v", id, st.State, err)
		}
	}
	// With one slot, the high-priority job must have started before the
	// low-priority one submitted ahead of it.
	bs, _ = m.Status(b.ID)
	cs, _ = m.Status(c.ID)
	if bs.Started.Before(*cs.Started) {
		t.Fatalf("low-priority job started %v before high-priority job (%v)", bs.Started, cs.Started)
	}
}

func TestCancelQueuedJob(t *testing.T) {
	m := newTestManager(t, Config{Workers: 1, MaxJobs: 1})
	a, err := m.Submit(tinySpec(7))
	if err != nil {
		t.Fatal(err)
	}
	b, err := m.Submit(tinySpec(8))
	if err != nil {
		t.Fatal(err)
	}
	if st, _ := m.Status(b.ID); st.State == StateQueued {
		cst, err := m.Cancel(b.ID)
		if err != nil {
			t.Fatal(err)
		}
		if cst.State != StateCancelled {
			t.Fatalf("cancelled queued job state = %s", cst.State)
		}
		if _, _, err := m.Report(b.ID); err == nil {
			t.Fatal("cancelled-before-start job has a report")
		}
	}
	m.Await(a.ID)
	// Cancelling a terminal job is a no-op.
	if st, err := m.Cancel(a.ID); err != nil || st.State != StateSucceeded {
		t.Fatalf("cancel of finished job: state=%v err=%v", st.State, err)
	}
}

// TestCancelRunningJobKeepsPartialReport: a job cancelled mid-campaign
// finishes as cancelled with the partial report the campaign returned,
// and its status counts exactly the simulations that report does.
func TestCancelRunningJobKeepsPartialReport(t *testing.T) {
	m := newTestManager(t, Config{Workers: 1, MaxJobs: 1})
	reached, release := holdAtRound(m, 1)
	spec := tinySpec(7)
	spec.WaveSize = 2
	st, err := m.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	<-reached
	if _, err := m.Cancel(st.ID); err != nil {
		t.Fatal(err)
	}
	release()
	final, err := m.Await(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != StateCancelled {
		t.Fatalf("state = %s (%s), want cancelled", final.State, final.Error)
	}
	rep, _, err := m.Report(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.Sims == 0 || final.Sims != rep.Sims {
		t.Fatalf("status says %d sims, the partial report %d", final.Sims, rep.Sims)
	}
}

// --- crash isolation ------------------------------------------------------

// TestCrashIsolation: a campaign that panics fails its own job; the
// manager keeps serving and later jobs succeed.
func TestCrashIsolation(t *testing.T) {
	m := newTestManager(t, Config{Workers: 2, MaxJobs: 2})
	crash := CampaignSpec{System: "svc-crash", Reps: 2, DelayMagnitudesMS: []int64{200}}
	st, err := m.Submit(crash)
	if err != nil {
		t.Fatal(err)
	}
	final, err := m.Await(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != StateFailed {
		t.Fatalf("crashed campaign state = %s, want failed", final.State)
	}
	if !strings.Contains(final.Error, "panicked") {
		t.Fatalf("error = %q, want a panic message", final.Error)
	}
	// The daemon survived: a healthy job still runs to completion.
	ok, err := m.Submit(tinySpec(7))
	if err != nil {
		t.Fatal(err)
	}
	if fin, err := m.Await(ok.ID); err != nil || fin.State != StateSucceeded {
		t.Fatalf("post-crash job: state=%v err=%v", fin.State, err)
	}
	snap := m.Snapshot()
	if snap.JobsFailed != 1 || snap.JobsSucceeded != 1 {
		t.Fatalf("metrics: failed=%d succeeded=%d", snap.JobsFailed, snap.JobsSucceeded)
	}
}

// --- event fan-out --------------------------------------------------------

// TestSubscribeReplayAndLive: a subscriber attached after completion
// still sees every round (replay) followed by the terminal state.
func TestSubscribeReplay(t *testing.T) {
	m := newTestManager(t, Config{Workers: 2, MaxJobs: 1})
	spec := tinySpec(7)
	spec.WaveSize = 3
	st, err := m.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	final, err := m.Await(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	ch, unsub, err := m.Subscribe(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	defer unsub()
	var rounds int
	var last Event
	for ev := range ch {
		last = ev
		if ev.Type == "round" {
			rounds++
		}
	}
	if rounds != len(final.Rounds) {
		t.Fatalf("replayed %d rounds, job recorded %d", rounds, len(final.Rounds))
	}
	if last.Type != "state" || last.State != StateSucceeded {
		t.Fatalf("last event = %+v, want terminal state", last)
	}
}

// TestSlowSubscriberDropsNotBlocks: a subscriber that never drains must
// not stall the campaign; it loses rounds and the drop count says so.
func TestSlowSubscriberDropsNotBlocks(t *testing.T) {
	m := newTestManager(t, Config{Workers: 2, MaxJobs: 1, subBuffer: 1})
	spec := tinySpec(7)
	spec.WaveSize = 1 // one round per experiment: many events
	st, err := m.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	ch, unsub, err := m.Subscribe(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	defer unsub()
	final, err := m.Await(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != StateSucceeded {
		t.Fatalf("state = %s (%s)", final.State, final.Error)
	}
	// The undrained subscriber did not stall the campaign; whatever made
	// it into the buffer is still delivered, then the channel closes.
	for range ch {
	}
}

// checkStream pins the fan-out contract on one stream that has item 1
// recorded already: a one-slot subscriber gets item 1 replayed before
// anything live; left undrained from there on, it does not stall produce
// (which returns once the producer has published everything it had); and
// the stream ends closed -- on its own or through end -- behind whatever
// did fit, still in publication order.
func checkStream[T any](t *testing.T, subscribe func() (<-chan T, func()), seq func(T) int64, produce, end func()) {
	t.Helper()
	ch, unsub := subscribe()
	defer unsub()
	select {
	case v := <-ch:
		if seq(v) != 1 {
			t.Fatalf("first item has seq %d, want the replayed 1", seq(v))
		}
	case <-time.After(10 * time.Second):
		t.Fatal("the recorded item was not replayed")
	}
	produce()
	end()
	last := int64(1)
drain:
	for {
		select {
		case v, open := <-ch:
			if !open {
				break drain
			}
			if seq(v) <= last {
				t.Fatalf("item %d arrived after item %d", seq(v), last)
			}
			last = seq(v)
		case <-time.After(10 * time.Second):
			t.Fatal("the stream never closed")
		}
	}
	if last == 1 {
		t.Fatal("no live item reached the subscriber")
	}
}

// TestFanOut runs the contract over both streams the one fan-out
// carries -- job events and monitor alerts -- and pins the drop debt the
// job stream adds on top.
func TestFanOut(t *testing.T) {
	for _, tc := range []struct {
		name string
		run  func(t *testing.T)
	}{
		{"job-events", func(t *testing.T) {
			m := newTestManager(t, Config{Workers: 2, MaxJobs: 1, subBuffer: 1})
			reached, release := holdAtRound(m, 1)
			spec := tinySpec(7)
			spec.WaveSize = 1 // one round per experiment: many events
			st, err := m.Submit(spec)
			if err != nil {
				t.Fatal(err)
			}
			<-reached // round 1 is sealed and the campaign parked
			checkStream(t,
				func() (<-chan Event, func()) {
					ch, unsub, err := m.Subscribe(st.ID)
					if err != nil {
						t.Fatal(err)
					}
					return ch, unsub
				},
				func(ev Event) int64 {
					if ev.Type == "round" {
						return int64(ev.Round.Round)
					}
					return 1 << 32 // the terminal state event comes last
				},
				func() {
					release()
					if fin, err := m.Await(st.ID); err != nil || fin.State != StateSucceeded {
						t.Fatalf("job: %+v / %v", fin, err)
					}
				},
				func() {}) // the terminal transition closes the stream
		}},
		{"monitor-alerts", func(t *testing.T) {
			m := newTestManager(t, Config{Workers: 1})
			st, err := m.CreateMonitor(MonitorSpec{})
			if err != nil {
				t.Fatal(err)
			}
			rt, _ := m.getMonitor(st.ID)
			if _, err := rt.mon.Ingest(strings.NewReader(cycleTrace)); err != nil {
				t.Fatal(err)
			}
			checkStream(t,
				func() (<-chan monitor.Alert, func()) { return rt.subscribe(1, true) },
				func(a monitor.Alert) int64 { return a.Seq },
				func() {
					// Four more cycles close in one batch: four alerts.
					var more strings.Builder
					for _, p := range []string{"cd", "ef", "gh", "ij"} {
						fmt.Fprintf(&more, `{"t":"edge","atMs":2,"edge":{"f":"%c","t":"%c","k":2,"fc":0,"tc":0,"w":"w1"}}`+"\n", p[0], p[1])
						fmt.Fprintf(&more, `{"t":"edge","atMs":3,"edge":{"f":"%c","t":"%c","k":2,"fc":0,"tc":0,"w":"w2"}}`+"\n", p[1], p[0])
					}
					res, err := rt.mon.Ingest(strings.NewReader(more.String()))
					if err != nil || len(res.Alerts) < 3 {
						t.Fatalf("ingest: %+v / %v, want at least 3 alerts", res, err)
					}
				},
				func() {
					if err := m.DeleteMonitor(st.ID); err != nil {
						t.Fatal(err)
					}
				})
		}},
		// Lost events increment a debt that rides along on the next event
		// that does fit, and resets once reported.
		{"drop-folding", func(t *testing.T) {
			events := &newJob("job-1", 1, CampaignSpec{}, time.Time{}).events
			ch, unsub := events.subscribe(1, func() ([]Event, bool) { return nil, true })
			defer unsub()
			for i := 0; i < 3; i++ { // one fits, two are lost
				events.publish(Event{Type: "round"}, nil)
			}
			if got := <-ch; got.Dropped != 0 {
				t.Fatalf("first delivered event carries drop debt %d", got.Dropped)
			}
			select {
			case got := <-ch:
				t.Fatalf("an offer into a full buffer was delivered: %+v", got)
			default:
			}
			events.publish(Event{Type: "round"}, nil)
			if got := <-ch; got.Dropped != 2 {
				t.Fatalf("drop debt = %d, want 2", got.Dropped)
			}
			events.publish(Event{Type: "state"}, nil)
			if got := <-ch; got.Dropped != 0 {
				t.Fatalf("drop debt did not reset: %d", got.Dropped)
			}
		}},
	} {
		t.Run(tc.name, tc.run)
	}
}

// --- graph store ----------------------------------------------------------

func TestGraphStorePersistenceAndMerge(t *testing.T) {
	dir := t.TempDir()
	m := newTestManager(t, Config{Workers: 2, MaxJobs: 2, DataDir: dir})
	a, err := m.Submit(tinySpec(7))
	if err != nil {
		t.Fatal(err)
	}
	b, err := m.Submit(tinySpec(8))
	if err != nil {
		t.Fatal(err)
	}
	fa, _ := m.Await(a.ID)
	fb, _ := m.Await(b.ID)
	if fa.GraphID == "" || fb.GraphID == "" {
		t.Fatalf("missing graph artifacts: %q %q", fa.GraphID, fb.GraphID)
	}

	art, merged, err := m.Store().Merge([]string{fa.GraphID, fb.GraphID})
	if err != nil {
		t.Fatal(err)
	}
	if art.Info.System != "svc-tiny" {
		t.Fatalf("merged same-system graphs lost the system name: %q", art.Info.System)
	}
	ga, _ := m.Store().Load(fa.GraphID)
	if merged.Len() < ga.Len() {
		t.Fatalf("merge shrank the graph: %d < %d", merged.Len(), ga.Len())
	}
	if _, _, err := m.Store().Merge([]string{"g-404"}); err == nil {
		t.Fatal("merge of unknown graph succeeded")
	}
	if _, _, err := m.Store().Merge(nil); err == nil {
		t.Fatal("empty merge succeeded")
	}

	// A fresh store over the same directory reloads everything,
	// byte-identically, and keeps allocating fresh ids after the max.
	reloaded, err := NewGraphStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if reloaded.Len() != m.Store().Len() {
		t.Fatalf("reloaded %d artifacts, stored %d", reloaded.Len(), m.Store().Len())
	}
	orig, _ := m.Store().Get(art.Info.ID)
	got, ok := reloaded.Get(art.Info.ID)
	if !ok {
		t.Fatalf("merged artifact %s not reloaded", art.Info.ID)
	}
	if string(got.Data()) != string(orig.Data()) {
		t.Fatal("reloaded artifact bytes differ")
	}
	next, err := reloaded.Put("test", merged)
	if err != nil {
		t.Fatal(err)
	}
	if _, clash := m.Store().Get(next.Info.ID); clash {
		t.Fatalf("reloaded store reissued id %s", next.Info.ID)
	}
}

// --- metrics --------------------------------------------------------------

func TestMetricsSnapshot(t *testing.T) {
	m := newTestManager(t, Config{Workers: 3, MaxJobs: 1})
	st, err := m.Submit(tinySpec(7))
	if err != nil {
		t.Fatal(err)
	}
	m.Await(st.ID)
	snap := m.Snapshot()
	if snap.JobsSucceeded != 1 || snap.JobsRunning != 0 || snap.JobsQueued != 0 {
		t.Fatalf("snapshot = %+v", snap)
	}
	if snap.PoolCapacity != 3 || snap.PoolInUse != 0 {
		t.Fatalf("pool: cap=%d inuse=%d", snap.PoolCapacity, snap.PoolInUse)
	}
	if snap.SimsTotal == 0 {
		t.Fatal("sims counter did not advance")
	}
	if snap.GraphsStored != 1 {
		t.Fatalf("graphs stored = %d", snap.GraphsStored)
	}
}

// --- list ordering --------------------------------------------------------

func TestListSubmissionOrder(t *testing.T) {
	m := newTestManager(t, Config{Workers: 1, MaxJobs: 1})
	var ids []string
	for i := 0; i < 3; i++ {
		st, err := m.Submit(tinySpec(int64(7 + i)))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, st.ID)
	}
	list := m.List()
	if len(list) != 3 {
		t.Fatalf("list has %d jobs", len(list))
	}
	for i, st := range list {
		if st.ID != ids[i] {
			t.Fatalf("list[%d] = %s, want %s", i, st.ID, ids[i])
		}
	}
	for _, id := range ids {
		m.Await(id)
	}
	_ = fmt.Sprintf // keep fmt if assertions above change
}
