// Robustness tests: the durability layer (journal replay, torn tails,
// idempotence), crash recovery (hard kill mid-campaign, reboot,
// byte-identical resumed reports), self-healing (retries, panic stacks,
// deadlines), admission control, and graceful drain.

package service

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core/csnake"
	"repro/internal/report"
	"repro/internal/sim"
	"repro/internal/systems/sysreg"
)

// svc-flaky panics on its first simulation after arming, then behaves
// exactly like svc-tiny -- a transient fault for the retry tests.
var flakyArm atomic.Int32

type flakySystem struct{ tinySystem }

func (flakySystem) Name() string { return "svc-flaky" }
func (f flakySystem) Workloads() []sysreg.Workload {
	wls := f.tinySystem.Workloads()
	out := make([]sysreg.Workload, len(wls))
	for i, wl := range wls {
		inner := wl.Run
		wl.Run = func(ctx *sysreg.RunContext) {
			ctx.Engine.Spawn("srv", "glitch", func(p *sim.Proc) {
				if flakyArm.CompareAndSwap(1, 0) {
					panic("transient glitch")
				}
			})
			inner(ctx)
		}
		out[i] = wl
	}
	return out
}

func init() {
	sysreg.Register("svc-flaky", func() sysreg.System { return flakySystem{} })
}

// removedSpecField is the CampaignSpec knob that went with the
// prefix-sharing layer, spelled in halves so a grep for the removed
// name finds no survivor.
const removedSpecField = "noPrefix" + "Share"

// isolatedReport runs spec outside the service and returns the report
// bytes a healthy job would serve -- the baseline for the crash tests.
func isolatedReport(t *testing.T, spec CampaignSpec) []byte {
	t.Helper()
	sys, opts, err := spec.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	rep, err := csnake.NewCampaign(sys, opts...).Run()
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(report.NewJSON(rep, sys.Bugs()))
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// servedReport fetches a finished job's report bytes from the manager.
func servedReport(t *testing.T, m *Manager, id string) []byte {
	t.Helper()
	rep, st, err := m.Report(id)
	if err != nil {
		t.Fatalf("report of %s: %v (state %s, err %q)", id, err, st.State, st.Error)
	}
	data, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// holdAtRound arms the manager's round hook (must be called before any
// submission): the first campaign to seal round n blocks inside the
// hook and is announced on the returned channel -- deterministically
// mid-flight until release is called.
func holdAtRound(m *Manager, n int) (<-chan *Job, func()) {
	reached := make(chan *Job, 1)
	gate := make(chan struct{})
	var once sync.Once
	m.roundHook = func(j *Job, round int) {
		if round >= n {
			once.Do(func() { reached <- j })
			<-gate
		}
	}
	return reached, func() { close(gate) }
}

// --- journal ----------------------------------------------------------------

// TestJournalTornTail: a crash mid-append leaves a torn final line;
// replay returns every complete record and skips exactly the torn one.
func TestJournalTornTail(t *testing.T) {
	dir := t.TempDir()
	jl, err := openJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	spec := tinySpec(7)
	recs := []journalRecord{
		{T: "submit", Job: "job-1", Seq: 1, Spec: &spec, Created: time.Now().UTC()},
		{T: "state", Job: "job-1", State: StateRunning, Attempt: 1},
		{T: "state", Job: "job-1", State: StateQueued, Error: "boom", Attempt: 1},
	}
	for _, rec := range recs {
		if err := jl.append(rec); err != nil {
			t.Fatal(err)
		}
	}
	jl.close()
	f, err := os.OpenFile(filepath.Join(dir, "journal.jsonl"), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteString(`{"t":"state","job":"job-1","sta`) // torn mid-write
	f.Close()

	jl2, err := openJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer jl2.close()
	got, skipped, err := jl2.replay()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(recs) {
		t.Fatalf("replayed %d records, want %d", len(got), len(recs))
	}
	if skipped != 1 {
		t.Fatalf("skipped %d lines, want 1 (the torn tail)", skipped)
	}
	if got[2].State != StateQueued || got[2].Error != "boom" || got[2].Attempt != 1 {
		t.Fatalf("state record did not round-trip: %+v", got[2])
	}
	// A fresh append after the torn tail is still replayable: the torn
	// line is skipped, not a poison pill.
	if err := jl2.append(journalRecord{T: "state", Job: "job-1", State: StateFailed}); err != nil {
		t.Fatal(err)
	}
	got, _, err = jl2.replay()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(recs)+1 || got[len(got)-1].State != StateFailed {
		t.Fatalf("append after torn tail: replayed %d records", len(got))
	}
}

// TestJournalReplayIdempotent: a journal whose entire content was
// duplicated (the worst case of a crash racing compaction) replays into
// the same job table -- one job, correct terminal state, served report.
func TestJournalReplayIdempotent(t *testing.T) {
	dir := t.TempDir()
	m := newTestManager(t, Config{Workers: 2, MaxJobs: 1, DataDir: dir})
	spec := tinySpec(7)
	spec.WaveSize = 3
	st, err := m.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if fin, err := m.Await(st.ID); err != nil || fin.State != StateSucceeded {
		t.Fatalf("job: %v / %v", fin, err)
	}
	want := servedReport(t, m, st.ID)
	m.Close()

	// Double the journal: every record appears twice, in order.
	jpath := filepath.Join(dir, "jobs", "journal.jsonl")
	data, err := os.ReadFile(jpath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(jpath, append(append([]byte(nil), data...), data...), 0o644); err != nil {
		t.Fatal(err)
	}

	m2 := newTestManager(t, Config{Workers: 2, MaxJobs: 1, DataDir: dir})
	list := m2.List()
	if len(list) != 1 {
		t.Fatalf("doubled journal replayed into %d jobs, want 1", len(list))
	}
	fin, err := m2.Await(st.ID)
	if err != nil || fin.State != StateSucceeded {
		t.Fatalf("replayed job: %+v / %v", fin, err)
	}
	if got := servedReport(t, m2, st.ID); string(got) != string(want) {
		t.Fatalf("replayed report differs from the original:\n got: %s\nwant: %s", got, want)
	}
	// Fresh submissions continue the id sequence, never reusing job-1.
	st2, err := m2.Submit(tinySpec(8))
	if err != nil {
		t.Fatal(err)
	}
	if st2.ID == st.ID {
		t.Fatalf("replayed manager reissued id %s", st.ID)
	}
	m2.Await(st2.ID)
}

// fixtureJournal is a journal exactly as the daemon before the
// one-transition refactor wrote it (every record carries both time
// fields, zero or not): a finished anytime job, a job cancelled while it
// waited out a retry, two monitors of which one was deleted, and the
// torn line of a crash mid-append. It pins the on-disk format: what an
// older daemon left must boot into the same tables.
const fixtureJournal = `{"t":"submit","job":"job-1","seq":1,"spec":{"system":"svc-tiny","seed":7,"reps":3,"delayMagnitudesMs":[200,1000],"waveSize":4},"created":"2026-01-02T03:04:05.5Z","at":"0001-01-01T00:00:00Z"}
{"t":"state","job":"job-1","created":"0001-01-01T00:00:00Z","state":"running","attempt":1,"at":"2026-01-02T03:04:06Z"}
{"t":"round","job":"job-1","created":"0001-01-01T00:00:00Z","at":"0001-01-01T00:00:00Z","round":{"round":1,"phase":1,"runs":2,"spent":2,"budget":16,"newEdges":3,"touchedEdges":3,"touchedFaults":2,"cycles":3,"clusters":2,"detected":["SVCT-1"]}}
{"t":"submit","job":"job-2","seq":2,"spec":{"system":"svc-tiny","maxAttempts":3,"priority":5},"created":"2026-01-02T03:04:06.5Z","at":"0001-01-01T00:00:00Z"}
{"t":"round","job":"job-1","created":"0001-01-01T00:00:00Z","at":"0001-01-01T00:00:00Z","round":{"round":2,"phase":2,"runs":2,"spent":4,"budget":16,"newEdges":2,"touchedEdges":2,"touchedFaults":2,"cycles":13,"clusters":2,"detected":["SVCT-1"]}}
{"t":"ckpt","job":"job-1","created":"0001-01-01T00:00:00Z","at":"0001-01-01T00:00:00Z","rounds":2}
{"t":"state","job":"job-1","created":"0001-01-01T00:00:00Z","state":"succeeded","attempt":1,"at":"2026-01-02T03:04:07Z","graphId":"g1","report":"report-job-1.json","sims":24}
{"t":"state","job":"job-2","created":"0001-01-01T00:00:00Z","state":"running","attempt":1,"at":"2026-01-02T03:04:07.5Z"}
{"t":"state","job":"job-2","created":"0001-01-01T00:00:00Z","state":"queued","error":"campaign panicked: boom","attempt":1,"at":"2026-01-02T03:04:08Z"}
{"t":"mon-create","job":"mon-1","seq":1,"created":"2026-01-02T03:04:09Z","at":"0001-01-01T00:00:00Z","monitor":{"name":"x","windowMs":1000,"buckets":4}}
{"t":"mon-create","job":"mon-2","seq":2,"created":"2026-01-02T03:04:10Z","at":"0001-01-01T00:00:00Z","monitor":{}}
{"t":"state","job":"job-2","created":"0001-01-01T00:00:00Z","state":"cancelled","error":"context canceled","attempt":1,"at":"2026-01-02T03:04:11Z"}
{"t":"mon-delete","job":"mon-1","seq":1,"created":"0001-01-01T00:00:00Z","at":"0001-01-01T00:00:00Z"}
{"t":"state","job":"job-2","created":"0001-01-`

// fixtureReport is job-1's report side file, as that daemon wrote it.
const fixtureReport = `{"schema":1,"system":"svc-tiny","faults":2,"budget":16,"experiments":4,"sims":24,"edges":5,"cycles":13,"clusters":[{"key":"g0,g1","bug":"SVCT-1","cycles":10,"best":{"score":0.5,"faults":["svct.worker.loop","svct.job.deadline_ioe"],"chain":"svct.worker.loop -E(D)-\u003e svct.job.deadline_ioe -S+(I)-\u003e svct.worker.loop"}},{"key":"g1","cycles":3,"best":{"score":1,"faults":["svct.job.deadline_ioe"],"chain":"svct.job.deadline_ioe -E(I)-\u003e svct.job.deadline_ioe"}}],"detectedBugs":["SVCT-1"],"rounds":[{"round":1,"phase":1,"runs":2,"spent":2,"budget":16,"newEdges":3,"touchedEdges":3,"touchedFaults":2,"cycles":3,"clusters":2,"detected":["SVCT-1"]},{"round":2,"phase":2,"runs":2,"spent":4,"budget":16,"newEdges":2,"touchedEdges":2,"touchedFaults":2,"cycles":13,"clusters":2,"detected":["SVCT-1"]}]}`

// TestJournalFixtureReplay boots a manager on the literal fixture -- and
// once more on the journal that boot compacted it into -- and checks the
// job table and the lifetime counters record by record. The monitor
// records are ignored: monitors live as long as the daemon.
func TestJournalFixtureReplay(t *testing.T) {
	dir := t.TempDir()
	if err := os.MkdirAll(filepath.Join(dir, "jobs"), 0o755); err != nil {
		t.Fatal(err)
	}
	for name, content := range map[string]string{"journal.jsonl": fixtureJournal, "report-job-1.json": fixtureReport} {
		if err := os.WriteFile(filepath.Join(dir, "jobs", name), []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	at := func(s string) time.Time {
		ts, err := time.Parse(time.RFC3339Nano, s)
		if err != nil {
			t.Fatal(err)
		}
		return ts
	}
	for _, boot := range []string{"fixture", "compacted"} {
		m := newTestManager(t, Config{Workers: 1, DataDir: dir})
		list := m.List()
		if len(list) != 2 {
			t.Fatalf("%s: replayed %d jobs, want 2", boot, len(list))
		}
		a, b := list[0], list[1]
		if a.ID != "job-1" || a.State != StateSucceeded || a.Error != "" || a.Attempt != 1 || a.Sims != 24 ||
			a.GraphID != "g1" || len(a.Rounds) != 2 || a.Rounds[1].Cycles != 13 || a.Resumed ||
			!a.Created.Equal(at("2026-01-02T03:04:05.5Z")) || a.Finished == nil || !a.Finished.Equal(at("2026-01-02T03:04:07Z")) ||
			a.Spec.WaveSize != 4 || a.Spec.Seed == nil || *a.Spec.Seed != 7 {
			t.Fatalf("%s: job-1 = %+v", boot, a)
		}
		if b.ID != "job-2" || b.State != StateCancelled || b.Error != "context canceled" || b.Attempt != 1 ||
			b.Sims != 0 || b.GraphID != "" || len(b.Rounds) != 0 || b.Resumed ||
			b.Finished == nil || !b.Finished.Equal(at("2026-01-02T03:04:11Z")) || b.Spec.MaxAttempts != 3 || b.Spec.Priority != 5 {
			t.Fatalf("%s: job-2 = %+v", boot, b)
		}
		if got := servedReport(t, m, "job-1"); string(got) != fixtureReport {
			t.Fatalf("%s: served report\n got: %s\nwant: %s", boot, got, fixtureReport)
		}
		if _, _, err := m.Report("job-2"); err == nil {
			t.Fatalf("%s: the cancelled job serves a report", boot)
		}
		for _, id := range []string{"job-1", "job-2"} { // terminal at boot: done is closed
			if _, err := m.Await(id); err != nil {
				t.Fatal(err)
			}
		}
		snap := m.Snapshot()
		if snap.JobsSucceeded != 1 || snap.JobsCancelled != 1 || snap.JobsFailed != 0 || snap.JobsResumed != 0 ||
			snap.JobsQueued != 0 || snap.JobsRunning != 0 || snap.SimsTotal != 24 || snap.RoundsTotal != 2 {
			t.Fatalf("%s: counters = %+v", boot, snap)
		}
		if mons := m.Monitors(); len(mons) != 0 {
			t.Fatalf("%s: monitors = %+v, want none", boot, mons)
		}
		m.Close()
	}
	// The job sequence continues past everything the journal named; the
	// monitor sequence starts over.
	m := newTestManager(t, Config{Workers: 1, DataDir: dir})
	if mon, err := m.CreateMonitor(MonitorSpec{}); err != nil || mon.ID != "mon-1" {
		t.Fatalf("next monitor = %+v / %v, want mon-1", mon, err)
	}
	st, err := m.Submit(tinySpec(7))
	if err != nil || st.ID != "job-3" {
		t.Fatalf("next job = %+v / %v, want job-3", st, err)
	}
	m.Await(st.ID)
}

// --- crash recovery ---------------------------------------------------------

// TestCrashRecoveryByteIdentical is the tentpole contract: hard-kill
// the daemon mid-campaign (journal frozen exactly as kill -9 would
// leave it), boot a fresh manager on the same data directory, and the
// recovered jobs finish with reports byte-identical to never having
// crashed. The anytime job resumes from its round checkpoint; the
// queued batch job re-runs from scratch.
func TestCrashRecoveryByteIdentical(t *testing.T) {
	anytimeSpec := tinySpec(7)
	anytimeSpec.WaveSize = 2
	batchSpec := tinySpec(8)
	wantAnytime := isolatedReport(t, anytimeSpec)
	wantBatch := isolatedReport(t, batchSpec)

	dir := t.TempDir()
	m1 := newTestManager(t, Config{Workers: 1, MaxJobs: 1, DataDir: dir})
	// Catch the anytime job mid-flight, blocked after its second sealed
	// round, then pull the plug.
	reached, release := holdAtRound(m1, 2)
	a, err := m1.Submit(anytimeSpec)
	if err != nil {
		t.Fatal(err)
	}
	b, err := m1.Submit(batchSpec) // queued behind a (MaxJobs 1)
	if err != nil {
		t.Fatal(err)
	}
	<-reached
	m1.HardStop()
	release()

	// Age the journal to what a daemon from before the prefix-sharing
	// knob was removed would have left: its submit records may carry the
	// field, which replay must ignore, not choke on.
	jpath := filepath.Join(dir, "jobs", "journal.jsonl")
	data, err := os.ReadFile(jpath)
	if err != nil {
		t.Fatal(err)
	}
	aged := strings.ReplaceAll(string(data), `"spec":{`, `"spec":{"`+removedSpecField+`":true,`)
	if n := strings.Count(aged, removedSpecField); n != 2 {
		t.Fatalf("journal holds %d submit specs, want 2:\n%s", n, data)
	}
	if err := os.WriteFile(jpath, []byte(aged), 0o644); err != nil {
		t.Fatal(err)
	}

	// Reboot on the crashed state.
	m2 := newTestManager(t, Config{Workers: 2, MaxJobs: 2, DataDir: dir})
	snap := m2.Snapshot()
	if snap.JobsResumed < 1 {
		t.Fatalf("jobs resumed = %d, want >= 1", snap.JobsResumed)
	}
	list := m2.List()
	if len(list) != 2 {
		t.Fatalf("recovered %d jobs, want 2", len(list))
	}
	seen := map[string]bool{}
	for _, st := range list {
		if seen[st.ID] {
			t.Fatalf("duplicate job id %s after recovery", st.ID)
		}
		seen[st.ID] = true
	}
	if !seen[a.ID] || !seen[b.ID] {
		t.Fatalf("recovery lost jobs: have %v, want %s and %s", seen, a.ID, b.ID)
	}

	fa, err := m2.Await(a.ID)
	if err != nil || fa.State != StateSucceeded {
		t.Fatalf("resumed anytime job: %+v / %v", fa, err)
	}
	if !fa.Resumed {
		t.Fatal("recovered running job not marked resumed")
	}
	fb, err := m2.Await(b.ID)
	if err != nil || fb.State != StateSucceeded {
		t.Fatalf("recovered batch job: %+v / %v", fb, err)
	}
	if got := servedReport(t, m2, a.ID); string(got) != string(wantAnytime) {
		t.Fatalf("resumed anytime report differs from uninterrupted run\n got: %s\nwant: %s", got, wantAnytime)
	}
	if got := servedReport(t, m2, b.ID); string(got) != string(wantBatch) {
		t.Fatalf("recovered batch report differs from uninterrupted run\n got: %s\nwant: %s", got, wantBatch)
	}
	// Fresh ids continue past the recovered ones.
	c, err := m2.Submit(tinySpec(9))
	if err != nil {
		t.Fatal(err)
	}
	if seen[c.ID] {
		t.Fatalf("fresh submission reused recovered id %s", c.ID)
	}
	m2.Await(c.ID)
}

// TestDrainInterruptsAndResumes: graceful shutdown mid-campaign journals
// the job as interrupted; the next boot re-queues it and it finishes
// byte-identical to an uninterrupted run.
func TestDrainInterruptsAndResumes(t *testing.T) {
	spec := tinySpec(11)
	spec.WaveSize = 2
	want := isolatedReport(t, spec)

	dir := t.TempDir()
	m1 := newTestManager(t, Config{Workers: 1, MaxJobs: 1, DataDir: dir})
	reached, release := holdAtRound(m1, 2)
	st, err := m1.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	<-reached
	drained := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		drained <- m1.Drain(ctx)
	}()
	// Let the campaign out of the hook only once the drain has closed
	// admissions (and, microseconds later, cancelled the job's context),
	// so it cannot race ahead and finish.
	for {
		m1.mu.Lock()
		d := m1.draining
		m1.mu.Unlock()
		if d {
			break
		}
		time.Sleep(time.Millisecond)
	}
	time.Sleep(10 * time.Millisecond)
	release()
	if err := <-drained; err != nil {
		t.Fatalf("drain: %v", err)
	}
	if is, _ := m1.Status(st.ID); is.State != StateInterrupted {
		t.Fatalf("drained job state = %s (%s), want interrupted", is.State, is.Error)
	}
	// Draining managers reject new work.
	if _, err := m1.Submit(tinySpec(12)); !errors.Is(err, ErrDraining) {
		t.Fatalf("submit while draining: %v, want ErrDraining", err)
	}
	m1.Close()

	m2 := newTestManager(t, Config{Workers: 2, MaxJobs: 1, DataDir: dir})
	fin, err := m2.Await(st.ID)
	if err != nil || fin.State != StateSucceeded {
		t.Fatalf("resumed job: %+v / %v", fin, err)
	}
	if !fin.Resumed {
		t.Fatal("interrupted job not marked resumed after reboot")
	}
	if got := servedReport(t, m2, st.ID); string(got) != string(want) {
		t.Fatalf("resumed report differs from uninterrupted run\n got: %s\nwant: %s", got, want)
	}
}

// TestCancelInterruptedJob: a DELETE on a job a drain interrupted
// cancels it for good -- journaled, its checkpoint side file removed --
// so the next boot serves it cancelled instead of resuming it.
func TestCancelInterruptedJob(t *testing.T) {
	spec := tinySpec(11)
	spec.WaveSize = 2
	dir := t.TempDir()
	m1 := newTestManager(t, Config{Workers: 1, MaxJobs: 1, DataDir: dir})
	reached, release := holdAtRound(m1, 2)
	st, err := m1.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	<-reached
	drained := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		drained <- m1.Drain(ctx)
	}()
	for {
		m1.mu.Lock()
		d := m1.draining
		m1.mu.Unlock()
		if d {
			break
		}
		time.Sleep(time.Millisecond)
	}
	time.Sleep(10 * time.Millisecond)
	release()
	if err := <-drained; err != nil {
		t.Fatalf("drain: %v", err)
	}
	ckpt := filepath.Join(dir, "jobs", ckptName(st.ID))
	if is, _ := m1.Status(st.ID); is.State != StateInterrupted {
		t.Fatalf("drained job state = %s (%s), want interrupted", is.State, is.Error)
	}
	if _, err := os.Stat(ckpt); err != nil {
		t.Fatalf("interrupted job has no checkpoint: %v", err)
	}
	if fin, err := m1.Cancel(st.ID); err != nil || fin.State != StateCancelled {
		t.Fatalf("cancel of an interrupted job: %+v / %v, want cancelled", fin, err)
	}
	if _, err := os.Stat(ckpt); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("cancelled job kept its checkpoint: %v", err)
	}
	m1.Close()

	m2 := newTestManager(t, Config{Workers: 1, MaxJobs: 1, DataDir: dir})
	if got, err := m2.Status(st.ID); err != nil || got.State != StateCancelled || got.Resumed {
		t.Fatalf("rebooted job: %+v / %v, want cancelled, not resumed", got, err)
	}
	if snap := m2.Snapshot(); snap.JobsResumed != 0 || snap.JobsCancelled != 1 {
		t.Fatalf("resumed=%d cancelled=%d, want 0/1", snap.JobsResumed, snap.JobsCancelled)
	}
}

// journalRows reads the data directory's journal as "type:state" rows.
func journalRows(t *testing.T, dir string) []string {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(dir, "jobs", "journal.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	var rows []string
	for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		var rec journalRecord
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("journal line %q: %v", line, err)
		}
		rows = append(rows, rec.T+":"+string(rec.State))
	}
	return rows
}

// TestAnytimeRoundsPersistedOnce: an anytime job journals its submission
// and its transitions, nothing per round. Its rounds ride in the
// checkpoint side file, which holds exactly the rounds its checkpoint
// resumes from.
func TestAnytimeRoundsPersistedOnce(t *testing.T) {
	dir := t.TempDir()
	m := newTestManager(t, Config{Workers: 1, MaxJobs: 1, DataDir: dir})
	// The round hook runs as round k is recorded, before its checkpoint
	// is written: held at round 3, the side file covers rounds 1 and 2.
	reached, release := holdAtRound(m, 3)
	spec := tinySpec(7)
	spec.WaveSize = 1 // four experiments, four rounds
	st, err := m.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	<-reached
	var ck checkpointFile
	if err := m.jl.readSide(ckptName(st.ID), &ck); err != nil {
		t.Fatal(err)
	}
	held, err := m.Status(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	got, _ := json.Marshal(ck.SealedRounds)
	want, _ := json.Marshal(held.Rounds[:2])
	if ck.Checkpoint == nil || ck.Checkpoint.Rounds != 2 || string(got) != string(want) {
		t.Fatalf("side file holds checkpoint %+v and rounds %s, want 2 rounds %s", ck.Checkpoint, got, want)
	}
	release()
	fin, err := m.Await(st.ID)
	if err != nil || fin.State != StateSucceeded || len(fin.Rounds) < 3 {
		t.Fatalf("job: %+v / %v", fin, err)
	}
	m.Close()
	if rows := journalRows(t, dir); strings.Join(rows, " ") != "submit: state:running state:succeeded" {
		t.Fatalf("journal rows = %v, want submit, running, succeeded", rows)
	}
}

// TestResumeFromOlderDaemon boots on what an older daemon left behind
// for an anytime job it was running: "round" and "ckpt" journal records
// and a bare csnake.Checkpoint side file. The job re-runs from scratch,
// marked resumed, to a report byte-identical to an uninterrupted run.
func TestResumeFromOlderDaemon(t *testing.T) {
	spec := tinySpec(7)
	spec.WaveSize = 2
	want := isolatedReport(t, spec)

	sys, opts, err := spec.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	var cp2 *csnake.Checkpoint
	rep, err := csnake.NewCampaign(sys, append(opts, csnake.WithCheckpoints(func(cp *csnake.Checkpoint) {
		if cp.Rounds == 2 {
			cp2 = cp
		}
	}))...).Run()
	if err != nil || cp2 == nil {
		t.Fatalf("no round-2 checkpoint: %v", err)
	}
	ckData, err := json.Marshal(cp2)
	if err != nil {
		t.Fatal(err)
	}
	specData, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	journal := `{"t":"submit","job":"job-1","seq":1,"spec":` + string(specData) + `,"created":"2026-01-02T03:04:05Z"}` + "\n" +
		`{"t":"state","job":"job-1","state":"running","attempt":1,"at":"2026-01-02T03:04:06Z"}` + "\n"
	for _, r := range report.NewJSON(rep, sys.Bugs()).Rounds[:2] {
		rd, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		journal += `{"t":"round","job":"job-1","round":` + string(rd) + "}\n"
	}
	journal += `{"t":"ckpt","job":"job-1","rounds":2}` + "\n"

	dir := t.TempDir()
	if err := os.MkdirAll(filepath.Join(dir, "jobs"), 0o755); err != nil {
		t.Fatal(err)
	}
	for name, content := range map[string]string{"journal.jsonl": journal, "ck-job-1.json": string(ckData)} {
		if err := os.WriteFile(filepath.Join(dir, "jobs", name), []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	m := newTestManager(t, Config{Workers: 2, MaxJobs: 1, DataDir: dir})
	fin, err := m.Await("job-1")
	if err != nil || fin.State != StateSucceeded || !fin.Resumed {
		t.Fatalf("job: %+v / %v, want succeeded and resumed", fin, err)
	}
	if got := servedReport(t, m, "job-1"); string(got) != string(want) {
		t.Fatalf("report differs from uninterrupted run\n got: %s\nwant: %s", got, want)
	}
	m.Close()
	if rows := journalRows(t, dir); strings.Join(rows, " ") != "submit: state:queued state:running state:succeeded" {
		t.Fatalf("journal rows = %v, want the old rows compacted away", rows)
	}
}

// --- self-healing -----------------------------------------------------------

// TestRetryAfterTransientFailure: a campaign that panics once succeeds
// on its retry; the attempt count, retry counter, and panic counter all
// say what happened.
func TestRetryAfterTransientFailure(t *testing.T) {
	m := newTestManager(t, Config{Workers: 2, MaxJobs: 1, retryBase: 10 * time.Millisecond})
	flakyArm.Store(1)
	spec := tinySpec(7)
	spec.System = "svc-flaky"
	spec.MaxAttempts = 3
	st, err := m.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	fin, err := m.Await(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if fin.State != StateSucceeded {
		t.Fatalf("flaky job state = %s (%s), want succeeded after retry", fin.State, fin.Error)
	}
	if fin.Error != "" {
		t.Fatalf("succeeded job still carries error %q", fin.Error)
	}
	if fin.Attempt != 2 {
		t.Fatalf("attempt = %d, want 2", fin.Attempt)
	}
	snap := m.Snapshot()
	if snap.JobsRetried != 1 || snap.JobsPanics != 1 {
		t.Fatalf("retries=%d panics=%d, want 1/1", snap.JobsRetried, snap.JobsPanics)
	}
	if snap.JobsFailed != 0 || snap.JobsSucceeded != 1 {
		t.Fatalf("failed=%d succeeded=%d", snap.JobsFailed, snap.JobsSucceeded)
	}
}

// TestRetriesExhausted: a permanently-failing campaign burns all its
// attempts and fails.
func TestRetriesExhausted(t *testing.T) {
	m := newTestManager(t, Config{Workers: 2, MaxJobs: 1, retryBase: time.Millisecond})
	spec := CampaignSpec{System: "svc-crash", Reps: 2, DelayMagnitudesMS: []int64{200}, MaxAttempts: 3}
	st, err := m.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	fin, err := m.Await(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if fin.State != StateFailed || fin.Attempt != 3 {
		t.Fatalf("state=%s attempt=%d, want failed after 3 attempts", fin.State, fin.Attempt)
	}
	if snap := m.Snapshot(); snap.JobsRetried != 2 {
		t.Fatalf("retries = %d, want 2", snap.JobsRetried)
	}
}

// TestPanicCapturesStack: the crash-isolation barrier records the panic
// value and the goroutine stack, so a crashed campaign is debuggable
// from the job's error alone.
func TestPanicCapturesStack(t *testing.T) {
	m := newTestManager(t, Config{Workers: 2, MaxJobs: 1})
	st, err := m.Submit(CampaignSpec{System: "svc-crash", Reps: 2, DelayMagnitudesMS: []int64{200}})
	if err != nil {
		t.Fatal(err)
	}
	fin, err := m.Await(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if fin.State != StateFailed {
		t.Fatalf("state = %s, want failed", fin.State)
	}
	if !strings.Contains(fin.Error, "workload exploded") {
		t.Fatalf("error %q does not carry the panic value", fin.Error)
	}
	if !strings.Contains(fin.Error, "goroutine ") {
		t.Fatalf("error does not carry a stack trace:\n%s", fin.Error)
	}
	if snap := m.Snapshot(); snap.JobsPanics != 1 {
		t.Fatalf("panics = %d, want 1", snap.JobsPanics)
	}
}

// TestDeadlineExceeded: the attempt's context expires on a job stuck
// past its deadline (here: starved of worker tokens) and it fails with
// the distinguished deadline_exceeded error.
func TestDeadlineExceeded(t *testing.T) {
	m := newTestManager(t, Config{Workers: 1, MaxJobs: 1})
	if !m.Pool().Acquire(context.Background()) {
		t.Fatal("could not starve the pool")
	}
	defer m.Pool().Release()
	spec := tinySpec(7)
	spec.DeadlineMS = 100
	st, err := m.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	fin, err := m.Await(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if fin.State != StateFailed || fin.Error != "deadline_exceeded" {
		t.Fatalf("state=%s error=%q, want failed/deadline_exceeded", fin.State, fin.Error)
	}
}

// TestCancelDuringRetryBackoff: a DELETE that lands while a job waits
// out its retry backoff cancels it, even when the attempt that just
// ended did so by blowing its deadline -- the deadline verdict belongs
// to that attempt, not to the job.
func TestCancelDuringRetryBackoff(t *testing.T) {
	m := newTestManager(t, Config{Workers: 1, MaxJobs: 1, retryBase: time.Hour})
	if !m.Pool().Acquire(context.Background()) {
		t.Fatal("could not starve the pool")
	}
	defer m.Pool().Release()
	spec := tinySpec(7)
	spec.DeadlineMS = 100
	spec.MaxAttempts = 2
	st, err := m.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	events, unsub, err := m.Subscribe(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	defer unsub()
	select {
	case ev := <-events:
		if ev.State != StateQueued || ev.Attempt != 1 || ev.Error != "deadline_exceeded" {
			t.Fatalf("first event = %+v, want the retry transition of attempt 1", ev)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("attempt 1 never hit its deadline")
	}
	fin, err := m.Cancel(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if fin.State != StateCancelled {
		t.Fatalf("state=%s error=%q, want cancelled", fin.State, fin.Error)
	}
	if snap := m.Snapshot(); snap.JobsCancelled != 1 || snap.JobsFailed != 0 {
		t.Fatalf("cancelled=%d failed=%d, want 1/0", snap.JobsCancelled, snap.JobsFailed)
	}
}

// --- admission control ------------------------------------------------------

// TestAdmissionQueueBound: the queue rejects past MaxQueue and the
// rejection counter advances.
func TestAdmissionQueueBound(t *testing.T) {
	m := newTestManager(t, Config{Workers: 1, MaxJobs: 1, MaxQueue: 1})
	if !m.Pool().Acquire(context.Background()) {
		t.Fatal("could not starve the pool")
	}
	a, err := m.Submit(tinySpec(7)) // running (blocked on the pool)
	if err != nil {
		t.Fatal(err)
	}
	b, err := m.Submit(tinySpec(8)) // fills the queue
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Submit(tinySpec(9)); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("overflow submit: %v, want ErrQueueFull", err)
	}
	if snap := m.Snapshot(); snap.AdmissionRejected != 1 {
		t.Fatalf("admission rejected = %d, want 1", snap.AdmissionRejected)
	}
	m.Pool().Release()
	m.Await(a.ID)
	m.Await(b.ID)
}

// TestAdmissionLoadShed: with a shed high-water mark, submissions are
// rejected while the pool is saturated and accepted once it drains.
func TestAdmissionLoadShed(t *testing.T) {
	m := newTestManager(t, Config{Workers: 2, MaxJobs: 2, ShedHighWater: 0.5})
	if !m.Pool().Acquire(context.Background()) {
		t.Fatal("could not take a token")
	}
	if _, err := m.Submit(tinySpec(7)); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("submit under load: %v, want ErrOverloaded", err)
	}
	m.Pool().Release()
	st, err := m.Submit(tinySpec(7))
	if err != nil {
		t.Fatalf("submit after drain: %v", err)
	}
	m.Await(st.ID)
}

// TestAdmissionHTTP: admission rejections surface as 429 with a
// Retry-After header.
func TestAdmissionHTTP(t *testing.T) {
	m := newTestManager(t, Config{Workers: 1, MaxJobs: 1, MaxQueue: 1})
	srv := httptest.NewServer(NewServer(m))
	defer srv.Close()
	if !m.Pool().Acquire(context.Background()) {
		t.Fatal("could not starve the pool")
	}

	var a, b SubmitResponse
	if resp := postJSON(t, srv.URL+"/v1/campaigns", tinySpec(7), &a); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("first submit: status %d", resp.StatusCode)
	}
	if resp := postJSON(t, srv.URL+"/v1/campaigns", tinySpec(8), &b); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("second submit: status %d", resp.StatusCode)
	}
	resp := postJSON(t, srv.URL+"/v1/campaigns", tinySpec(9), nil)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overflow submit: status %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without a Retry-After header")
	}
	m.Pool().Release()
	m.Await(a.ID)
	m.Await(b.ID)
}
