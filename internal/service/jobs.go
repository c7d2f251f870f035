// This file is the job manager: campaigns submitted to the service
// become jobs in a priority queue, at most MaxJobs run at once, and all
// running jobs share one harness.TokenPool so the total number of
// in-flight simulations is bounded no matter how many campaigns are
// active. Each job runs on its own goroutine with a recover barrier
// (a panicking campaign fails its job, never the daemon), owns a
// cancellation context (DELETE), and fans completed rounds out to
// event subscribers.
//
// With a data directory configured the manager is crash-safe: every
// lifecycle transition is journaled (journal.go), anytime jobs persist
// a resume checkpoint, with the rounds it covers, after each round, and
// boot replays the journal to re-queue everything that was queued or
// running when the daemon died (recovery.go). Self-healing rides on
// top: failed attempts retry with capped exponential backoff up to the
// spec's maxAttempts, a watchdog cancels jobs stuck past their deadline,
// and admission control bounds the queue and sheds load when the worker
// pool saturates.

package service

import (
	"context"
	"errors"
	"fmt"
	"log"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core/csnake"
	"repro/internal/harness"
	"repro/internal/report"
	"repro/internal/systems/sysreg"
)

// Config tunes the service.
type Config struct {
	// Workers is the shared simulation-token budget across all running
	// jobs (default: GOMAXPROCS).
	Workers int
	// MaxJobs bounds concurrently running jobs (default 4); further
	// submissions queue by priority.
	MaxJobs int
	// MaxQueue bounds the number of waiting jobs (default 256); beyond
	// it submissions are rejected with ErrQueueFull (HTTP 429).
	MaxQueue int
	// ShedHighWater enables load shedding: when the worker pool's in-use
	// fraction reaches this value (e.g. 0.9), new submissions are
	// rejected with ErrOverloaded until the pool drains. 0 disables.
	ShedHighWater float64
	// DataDir persists graph artifacts and the job journal ("" =
	// in-memory only: no durability, no crash recovery).
	DataDir string

	// Test seams, left at their defaults in production: the
	// per-subscriber event buffer (64; a subscriber that falls further
	// behind drops items), the first retry backoff (500ms; attempt n waits
	// retryBase << (n-1), capped at 5s), and the stuck-job watchdog's scan
	// period (250ms).
	subBuffer     int
	retryBase     time.Duration
	watchInterval time.Duration
}

func (c *Config) defaults() {
	if c.Workers < 1 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.MaxJobs < 1 {
		c.MaxJobs = 4
	}
	if c.MaxQueue < 1 {
		c.MaxQueue = 256
	}
	if c.subBuffer < 1 {
		c.subBuffer = 64
	}
	if c.retryBase <= 0 {
		c.retryBase = 500 * time.Millisecond
	}
	if c.watchInterval <= 0 {
		c.watchInterval = 250 * time.Millisecond
	}
}

// Admission-control errors; the HTTP layer maps them onto 429/503 with
// a Retry-After header.
var (
	// ErrQueueFull rejects a submission when MaxQueue jobs are waiting.
	ErrQueueFull = errors.New("job queue full")
	// ErrOverloaded rejects a submission while the worker pool is
	// saturated past the shed high-water mark.
	ErrOverloaded = errors.New("worker pool saturated, shedding load")
	// ErrDraining rejects submissions during graceful shutdown.
	ErrDraining = errors.New("service is draining")
)

// Job is one campaign job. All mutable fields are guarded by the
// manager's mutex and state is written by Manager.transition alone; done
// is closed exactly once, on entry to a terminal state.
type Job struct {
	ID   string
	Spec CampaignSpec

	state    JobState
	err      string
	created  time.Time
	started  time.Time
	finished time.Time
	seq      int // submission order, the FIFO key within a priority

	// Scoped to the running attempt (retryTimer: to the backoff wait after
	// a failed one); transition drops them when the job moves on.
	cancel      context.CancelFunc
	deadline    time.Time
	deadlineHit bool
	retryTimer  *time.Timer

	attempt    int
	userCancel bool
	recovered  bool
	ckpt       *csnake.Checkpoint
	reportFile string

	rounds       []report.JSONRound
	json         *report.JSONReport
	bugs         []sysreg.Bug
	graphID      string
	earlyStopped bool
	sims         int

	// events carries drop debt on Event.Dropped.
	events fanout[Event]
	done   chan struct{}
}

// newJob builds a queued job, for Submit and the journal replay.
func newJob(id string, seq int, spec CampaignSpec, created time.Time) *Job {
	return &Job{
		ID: id, Spec: spec, state: StateQueued, created: created, seq: seq,
		events: fanout[Event]{debt: func(ev Event, n int) Event { ev.Dropped = n; return ev }},
		done:   make(chan struct{}),
	}
}

// submitRecord renders the journal "submit" record (immutable fields).
func (j *Job) submitRecord() journalRecord {
	spec := j.Spec
	return journalRecord{T: "submit", Job: j.ID, Seq: j.seq, Spec: &spec, Created: j.created}
}

// stateRecordLocked renders the journal "state" record; at is now for a
// transition, the finish time for a snapshot. Caller holds m.mu.
func (j *Job) stateRecordLocked(at time.Time) journalRecord {
	return journalRecord{
		T: "state", Job: j.ID, State: j.state, Error: j.err, Attempt: j.attempt, At: at,
		GraphID: j.graphID, Report: j.reportFile, Sims: j.sims, EarlyStopped: j.earlyStopped,
	}
}

// stateEventLocked renders the "state" stream event, live or replayed to
// a late subscriber. Caller holds m.mu.
func (j *Job) stateEventLocked() Event {
	return Event{Type: "state", Job: j.ID, State: j.state, Error: j.err, Attempt: j.attempt}
}

// putRound records a sealed round, live or replayed, under its 1-based
// number: a resumed campaign continues after the restored prefix, a
// retried one starts over at round 1. Caller holds m.mu.
func (j *Job) putRound(jr report.JSONRound) {
	if jr.Round >= 1 && jr.Round <= len(j.rounds)+1 {
		j.rounds = j.rounds[:jr.Round-1]
	}
	j.rounds = append(j.rounds, jr)
}

// ahead reports whether a dispatches before b: priority, then seniority.
func ahead(a, b *Job) bool {
	return a.Spec.Priority > b.Spec.Priority || (a.Spec.Priority == b.Spec.Priority && a.seq < b.seq)
}

// Manager owns the job table, the run queue, and the shared worker pool.
type Manager struct {
	cfg   Config
	pool  *harness.TokenPool
	store *GraphStore
	start time.Time

	// jl is the durable job journal (nil without a data directory). jmu
	// serializes journal appends against compaction; it is never
	// acquired while holding mu (compaction takes jmu then mu).
	jl  *journal
	jmu sync.Mutex

	stopWatch chan struct{}
	closeOnce sync.Once

	// roundHook, when set (tests only, before any submission), runs
	// synchronously on the campaign goroutine after each sealed round --
	// the deterministic way to catch a job mid-flight.
	roundHook func(j *Job, round int)

	// monMu guards the monitor table. Lock ordering: monMu is a leaf --
	// never acquire mu or call jlog/engine methods while holding it (an
	// engine's own lock is held across ingestion, and Stats would block
	// behind it).
	monMu    sync.Mutex
	mons     map[string]*monitorRuntime
	monOrder []string // creation order, for listing
	monSeq   int

	// Lifetime monitor counters (survive monitor deletion), updated by
	// the ingest handler.
	monRecords atomic.Int64
	monSkipped atomic.Int64
	monAlerts  atomic.Int64

	mu       sync.Mutex
	jobs     map[string]*Job
	order    []string // submission order, for listing
	queue    []*Job   // waiting jobs; popBest picks (priority desc, seq asc)
	running  int
	nextID   int
	draining bool

	// lifetime counters for /metrics
	simsTotal         int64
	roundsTotal       int64
	terminal          map[JobState]int // jobs that reached each terminal state
	retries           int64
	resumed           int64
	panics            int64
	admissionRejected int64
}

func errUnknownJob(id string) error { return fmt.Errorf("unknown job %q", id) }

// NewManager builds a manager (and its graph store) from cfg. With a
// data directory it also opens the job journal, replays it, and
// re-queues every job the previous daemon left unfinished.
func NewManager(cfg Config) (*Manager, error) {
	cfg.defaults()
	store, err := NewGraphStore(cfg.DataDir)
	if err != nil {
		return nil, err
	}
	m := &Manager{
		cfg:       cfg,
		pool:      harness.NewTokenPool(cfg.Workers),
		store:     store,
		start:     time.Now(),
		jobs:      make(map[string]*Job),
		terminal:  make(map[JobState]int),
		mons:      make(map[string]*monitorRuntime),
		stopWatch: make(chan struct{}),
	}
	if cfg.DataDir != "" {
		jl, err := openJournal(filepath.Join(cfg.DataDir, "jobs"))
		if err != nil {
			return nil, err
		}
		m.jl = jl
		if err := m.recover(); err != nil {
			return nil, err
		}
	}
	go m.watchdog()
	m.schedule()
	return m, nil
}

// Store returns the graph artifact store.
func (m *Manager) Store() *GraphStore { return m.store }

// Pool returns the shared worker-token pool.
func (m *Manager) Pool() *harness.TokenPool { return m.pool }

// jlog appends a journal record (no-op without a journal) and compacts
// the journal when it outgrows the high-water mark. Callers must not
// hold m.mu.
func (m *Manager) jlog(rec journalRecord) {
	if m.jl == nil {
		return
	}
	m.jmu.Lock()
	if err := m.jl.append(rec); err != nil {
		log.Printf("csnaked: journal append: %v", err)
	}
	m.jmu.Unlock()
	if m.jl.oversize() {
		m.compactJournal()
	}
}

// compactJournal rewrites the journal to the minimal record set that
// reproduces the current tables (at boot, and past the high-water mark).
// jmu blocks appends meanwhile, so no later record can be lost.
func (m *Manager) compactJournal() {
	m.jmu.Lock()
	defer m.jmu.Unlock()
	m.mu.Lock()
	recs := m.snapshotRecordsLocked()
	m.mu.Unlock()
	m.monMu.Lock()
	for _, id := range m.monOrder {
		recs = append(recs, m.mons[id].createRecord())
	}
	m.monMu.Unlock()
	if err := m.jl.rewrite(recs); err != nil {
		log.Printf("csnaked: journal compaction: %v", err)
	}
}

// snapshotRecordsLocked renders the job table as journal records: a
// submit and the latest state per job (rounds live in the checkpoint and
// report side files). Caller holds m.mu.
func (m *Manager) snapshotRecordsLocked() []journalRecord {
	var recs []journalRecord
	for _, id := range m.order {
		j := m.jobs[id]
		recs = append(recs, j.submitRecord(), j.stateRecordLocked(j.finished))
	}
	return recs
}

// Submit validates spec, enqueues a job for it, and starts it
// immediately if a run slot is free. It rejects submissions while the
// service drains (ErrDraining), when MaxQueue jobs already wait
// (ErrQueueFull), and when the pool is shed-saturated (ErrOverloaded).
func (m *Manager) Submit(spec CampaignSpec) (*JobStatus, error) {
	if _, _, err := spec.Resolve(); err != nil {
		return nil, err
	}
	m.mu.Lock()
	if m.draining {
		m.mu.Unlock()
		return nil, ErrDraining
	}
	if len(m.queue) >= m.cfg.MaxQueue {
		m.admissionRejected++
		m.mu.Unlock()
		return nil, fmt.Errorf("%w (%d waiting)", ErrQueueFull, m.cfg.MaxQueue)
	}
	if hw := m.cfg.ShedHighWater; hw > 0 && float64(m.pool.InUse()) >= hw*float64(m.pool.Cap()) {
		m.admissionRejected++
		m.mu.Unlock()
		return nil, fmt.Errorf("%w (%d/%d tokens held)", ErrOverloaded, m.pool.InUse(), m.pool.Cap())
	}
	m.nextID++
	j := newJob(fmt.Sprintf("job-%d", m.nextID), m.nextID, spec, time.Now())
	m.jobs[j.ID] = j
	m.order = append(m.order, j.ID)
	m.mu.Unlock()
	// Journal the submission before the job becomes runnable, so no
	// state record can ever precede its submit record.
	m.jlog(j.submitRecord())
	m.enqueue(j)
	return m.Status(j.ID)
}

// schedule starts queued jobs while run slots are free.
func (m *Manager) schedule() {
	for {
		m.mu.Lock()
		if m.draining || m.running >= m.cfg.MaxJobs || len(m.queue) == 0 {
			m.mu.Unlock()
			return
		}
		j := m.popBest()
		m.running++
		ctx, cancel := context.WithCancel(context.Background())
		j.cancel = cancel
		// A retry shows the last attempt's error until its own outcome.
		m.transition(j, StateRunning, j.err) // releases m.mu
		go m.runJob(j, ctx)
	}
}

// popBest removes and returns the highest-priority (then oldest) queued
// job. Caller holds m.mu.
func (m *Manager) popBest() *Job {
	best := 0
	for i, j := range m.queue {
		if ahead(j, m.queue[best]) {
			best = i
		}
	}
	j := m.queue[best]
	m.queue = slices.Delete(m.queue, best, best+1)
	return j
}

// runJob executes one campaign attempt to completion. The recover
// barrier is the crash-isolation boundary: a panic anywhere in the
// campaign (the harness re-raises worker-goroutine panics here) marks
// the job failed -- capturing the panic value and stack into the job's
// error -- and leaves the daemon and its other jobs untouched.
func (m *Manager) runJob(j *Job, ctx context.Context) {
	var rep *csnake.Report
	var err error
	func() {
		defer func() {
			if r := recover(); r != nil {
				m.mu.Lock()
				m.panics++
				m.mu.Unlock()
				err = fmt.Errorf("campaign panicked: %v\n%s", r, debug.Stack())
			}
		}()
		rep, err = m.runCampaign(j, ctx)
	}()
	m.finish(j, rep, err)
	m.mu.Lock()
	m.running--
	m.mu.Unlock()
	m.schedule()
}

// runCampaign resolves and runs the job's campaign, resuming from the
// job's checkpoint when one is loaded. A checkpoint the campaign
// rejects (ErrResume -- e.g. the spec changed shape across a daemon
// upgrade) is discarded and the campaign re-runs from scratch.
func (m *Manager) runCampaign(j *Job, ctx context.Context) (*csnake.Report, error) {
	sys, opts, err := j.Spec.Resolve()
	if err != nil { // validated at submit; re-resolution cannot regress
		return nil, err
	}
	m.mu.Lock()
	j.bugs = sys.Bugs()
	ckpt := j.ckpt
	m.mu.Unlock()

	for {
		runOpts := append(append([]csnake.Option(nil), opts...),
			csnake.WithContext(ctx),
			csnake.WithWorkerPool(m.pool),
			csnake.WithObserver(&jobObserver{m: m, j: j}),
		)
		if m.jl != nil && j.Spec.anytime() {
			runOpts = append(runOpts, csnake.WithCheckpoints(func(cp *csnake.Checkpoint) {
				m.saveCheckpoint(j, cp)
			}))
		}
		if ckpt != nil {
			runOpts = append(runOpts, csnake.WithResume(ckpt))
		}
		rep, err := csnake.NewCampaign(sys, runOpts...).Run()
		if err != nil && errors.Is(err, csnake.ErrResume) {
			log.Printf("csnaked: job %s: discarding stale checkpoint: %v", j.ID, err)
			m.mu.Lock()
			j.ckpt = nil
			j.rounds = nil
			m.mu.Unlock()
			if m.jl != nil {
				m.jl.removeSide(ckptName(j.ID))
			}
			ckpt = nil
			continue
		}
		return rep, err
	}
}

// saveCheckpoint persists an anytime job's round checkpoint together
// with the job's rounds up to it -- the observer recorded the round just
// before -- as one atomic side file. Runs on the campaign goroutine
// between rounds; persistence failures only shorten how far a crash can
// resume from, never fail the round.
func (m *Manager) saveCheckpoint(j *Job, cp *csnake.Checkpoint) {
	m.mu.Lock()
	rounds := slices.Clone(j.rounds)
	m.mu.Unlock()
	if err := m.jl.writeSide(ckptName(j.ID), checkpointFile{Checkpoint: cp, SealedRounds: rounds}); err != nil {
		log.Printf("csnaked: job %s: checkpoint: %v", j.ID, err)
		return
	}
	m.mu.Lock()
	j.ckpt = cp
	m.mu.Unlock()
}

// retryBackoff is the wait before attempt n+1: retryBase << (n-1),
// capped at 5s.
func (m *Manager) retryBackoff(attempt int) time.Duration {
	d := m.cfg.retryBase
	for i := 1; i < attempt && d < 5*time.Second; i++ {
		d *= 2
	}
	return min(d, 5*time.Second)
}

// enqueue puts a waiting job -- a fresh submission, or a retry whose
// backoff elapsed -- on the run queue, unless a cancel got to it first,
// and starts what fits.
func (m *Manager) enqueue(j *Job) {
	m.mu.Lock()
	if j.state == StateQueued && !slices.Contains(m.queue, j) {
		m.queue = append(m.queue, j)
	}
	m.mu.Unlock()
	m.schedule()
}

// finish settles a completed attempt: it classifies the outcome --
// success, failure (retried while attempts remain), cancellation, or,
// during a graceful drain, interruption, which leaves the job journaled
// for resume at the next boot -- persists a succeeded job's report and
// graph, and makes the transition. Only runJob moves a running job, once
// per attempt, so the state holds across the unlocked persistence step.
func (m *Manager) finish(j *Job, rep *csnake.Report, err error) {
	m.mu.Lock()
	var to JobState
	var errMsg string
	switch {
	case err == nil:
		to = StateSucceeded
	case errors.Is(err, context.Canceled) && j.deadlineHit:
		to, errMsg = StateFailed, "deadline_exceeded"
	case errors.Is(err, context.Canceled) && m.draining && !j.userCancel:
		to, errMsg = StateInterrupted, "interrupted by shutdown"
	case errors.Is(err, context.Canceled):
		to, errMsg = StateCancelled, err.Error()
	default:
		to, errMsg = StateFailed, err.Error()
	}
	// Failed with attempts remaining: back off and retry (unless the
	// service is draining or the user cancelled mid-failure).
	if to == StateFailed && !m.draining && !j.userCancel && j.attempt < j.Spec.MaxAttempts {
		to = StateQueued
	}
	var js *report.JSONReport
	if rep != nil {
		j.sims = rep.Sims
		m.simsTotal += int64(rep.Sims)
		if to.Terminal() {
			js = report.NewJSON(rep, j.bugs)
			spliceRecoveredRounds(js, j.rounds)
		}
	}
	m.mu.Unlock()

	var graphID, reportFile string
	if to == StateSucceeded {
		if rep.Graph != nil {
			if art, perr := m.store.Put("campaign:"+j.ID, rep.Graph); perr == nil {
				graphID = art.Info.ID
			}
		}
		if name := "report-" + j.ID + ".json"; m.jl != nil && m.jl.writeSide(name, js) == nil {
			reportFile = name
		}
	}

	m.mu.Lock()
	if js != nil {
		j.json, j.earlyStopped = js, rep.EarlyStopped
		j.graphID, j.reportFile = graphID, reportFile
	}
	m.transition(j, to, errMsg) // releases m.mu
}

// transition moves j into state to; it is the only writer of Job.state
// outside recover's journal fold. The caller holds m.mu -- so what it
// decided the move on still holds -- and transition releases it. Under
// the lock: state, error, timestamps, the attempt- and backoff-scoped
// fields (a move to queued is always a retry), the lifetime counters.
// Then, in order: a terminal job's resume checkpoint goes, the record is
// journaled, the event published (a start has none), the streams and a
// terminal job's done closed. Terminal jobs stay put: exactly once.
func (m *Manager) transition(j *Job, to JobState, errMsg string) {
	if j.state.Terminal() {
		m.mu.Unlock()
		return
	}
	now := time.Now()
	if j.state == StateRunning {
		j.cancel, j.deadline, j.deadlineHit = nil, time.Time{}, false
	}
	if t := j.retryTimer; t != nil {
		t.Stop()
		j.retryTimer = nil
	}
	j.state = to
	j.err = errMsg
	switch {
	case to == StateRunning:
		j.attempt++
		if j.started.IsZero() {
			j.started = now
		}
		if j.Spec.DeadlineMS > 0 {
			j.deadline = now.Add(time.Duration(j.Spec.DeadlineMS) * time.Millisecond)
		}
	case to == StateQueued:
		m.retries++
		j.retryTimer = time.AfterFunc(m.retryBackoff(j.attempt), func() { m.enqueue(j) })
	case to.Terminal():
		j.finished = now
		m.terminal[to]++
	}
	rec, ev := j.stateRecordLocked(now), j.stateEventLocked()
	m.mu.Unlock()

	if to.Terminal() && m.jl != nil {
		m.jl.removeSide(ckptName(j.ID))
	}
	m.jlog(rec)
	if to != StateRunning {
		j.events.publish(ev, nil)
	}
	if to.endsStream() {
		j.events.close()
	}
	if to.Terminal() {
		close(j.done)
	}
}

// spliceRecoveredRounds completes a resumed job's report: the campaign
// only re-ran rounds after the checkpoint, so the rounds the journal
// preserved from before the crash are spliced back in front. The spliced
// sequence is exactly what an uninterrupted run would have produced
// (both encodings are pure functions of identical rounds).
func spliceRecoveredRounds(js *report.JSONReport, rounds []report.JSONRound) {
	if len(rounds) == 0 {
		return
	}
	if len(js.Rounds) == 0 {
		// The resumed campaign ran no new rounds (e.g. it crashed after
		// the round that satisfied early stopping): the journal's rounds
		// are the whole trajectory.
		js.Rounds = append([]report.JSONRound(nil), rounds...)
	} else if first := js.Rounds[0].Round; first > 1 && first-1 <= len(rounds) {
		js.Rounds = append(append([]report.JSONRound(nil), rounds[:first-1]...), js.Rounds...)
	}
	if js.Budget == 0 && len(js.Rounds) > 0 {
		js.Budget = js.Rounds[len(js.Rounds)-1].Budget
	}
}

// watchdog scans running jobs for blown deadlines and cancels them; the
// attempt then fails with "deadline_exceeded" (and retries, if the spec
// allows attempts).
func (m *Manager) watchdog() {
	t := time.NewTicker(m.cfg.watchInterval)
	defer t.Stop()
	for {
		select {
		case <-m.stopWatch:
			return
		case <-t.C:
			now := time.Now()
			m.cancelRunning(func(j *Job) bool {
				if j.deadlineHit || j.deadline.IsZero() || !now.After(j.deadline) {
					return false
				}
				j.deadlineHit = true
				return true
			})
		}
	}
}

// cancelRunning cancels every running campaign (cancel is set exactly
// while a job runs) that pick, called under m.mu, selects.
func (m *Manager) cancelRunning(pick func(*Job) bool) {
	var cancels []context.CancelFunc
	m.mu.Lock()
	for _, j := range m.jobs {
		if j.cancel != nil && pick(j) {
			cancels = append(cancels, j.cancel)
		}
	}
	m.mu.Unlock()
	for _, c := range cancels {
		c()
	}
}

// Drain gracefully stops the manager: admissions are rejected, queued
// jobs stay journaled as queued, and running jobs are cancelled -- they
// finish as interrupted, resumable from their last sealed round at the
// next boot. Drain returns once no job is running, or with ctx's error.
func (m *Manager) Drain(ctx context.Context) error {
	m.stopAll()
	for {
		m.mu.Lock()
		n := m.running
		m.mu.Unlock()
		if n == 0 {
			return nil
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(10 * time.Millisecond):
		}
	}
}

// Close stops the watchdog and releases the journal handle. Idempotent.
func (m *Manager) Close() {
	m.closeOnce.Do(func() {
		close(m.stopWatch)
		if m.jl != nil {
			m.jl.close()
		}
	})
}

// HardStop simulates a daemon crash (kill -9) for tests: journal and
// side-file writes are frozen at their last completed state, then all
// running campaigns are cancelled so their goroutines exit. Nothing
// that happens after a HardStop reaches disk -- a manager booted on the
// same data directory sees exactly what a real crash would have left.
func (m *Manager) HardStop() {
	if m.jl != nil {
		m.jl.disable()
	}
	m.closeOnce.Do(func() { close(m.stopWatch) })
	m.stopAll()
}

// stopAll closes admissions (nothing starts once draining is set), then
// cancels every running campaign.
func (m *Manager) stopAll() {
	m.mu.Lock()
	m.draining = true
	m.mu.Unlock()
	m.cancelRunning(func(*Job) bool { return true })
}

// Cancel cancels a job: a queued job (including one waiting out a retry
// backoff) moves straight to cancelled, a running one has its context
// cancelled (the campaign unwinds and the job finishes as cancelled).
// Cancelling a terminal job is a no-op that reports the job's
// existence.
func (m *Manager) Cancel(id string) (*JobStatus, error) {
	m.mu.Lock()
	j, ok := m.jobs[id]
	if !ok {
		m.mu.Unlock()
		return nil, errUnknownJob(id)
	}
	j.userCancel = true
	if cancel := j.cancel; j.state == StateQueued {
		m.queue = slices.DeleteFunc(m.queue, func(q *Job) bool { return q == j })
		m.transition(j, StateCancelled, context.Canceled.Error()) // releases m.mu
	} else {
		m.mu.Unlock()
		if cancel != nil {
			cancel()
		}
	}
	return m.Status(id)
}

// Await blocks until the job reaches a terminal state and returns its
// final status.
func (m *Manager) Await(id string) (*JobStatus, error) {
	m.mu.Lock()
	j, ok := m.jobs[id]
	m.mu.Unlock()
	if !ok {
		return nil, errUnknownJob(id)
	}
	<-j.done
	return m.Status(id)
}

// Status returns a point-in-time copy of one job's status.
func (m *Manager) Status(id string) (*JobStatus, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	if !ok {
		return nil, errUnknownJob(id)
	}
	return m.statusLocked(j), nil
}

// List returns every job's status in submission order.
func (m *Manager) List() []*JobStatus {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]*JobStatus, 0, len(m.order))
	for _, id := range m.order {
		out = append(out, m.statusLocked(m.jobs[id]))
	}
	return out
}

func (m *Manager) statusLocked(j *Job) *JobStatus {
	st := &JobStatus{
		ID:           j.ID,
		State:        j.state,
		Spec:         j.Spec,
		Created:      j.created,
		Error:        j.err,
		Sims:         j.sims,
		Rounds:       append([]report.JSONRound(nil), j.rounds...),
		EarlyStopped: j.earlyStopped,
		GraphID:      j.graphID,
		Attempt:      j.attempt,
		Resumed:      j.recovered,
	}
	if !j.started.IsZero() {
		t := j.started
		st.Started = &t
	}
	if !j.finished.IsZero() {
		t := j.finished
		st.Finished = &t
	}
	if j.state == StateQueued {
		// Position among waiting jobs in dispatch order.
		st.QueuePosition = 1
		for _, q := range m.queue {
			if ahead(q, j) {
				st.QueuePosition++
			}
		}
	}
	return st
}

// Report returns the finished job's machine-readable report.
func (m *Manager) Report(id string) (*report.JSONReport, *JobStatus, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	if !ok {
		return nil, nil, errUnknownJob(id)
	}
	if j.json == nil {
		return nil, m.statusLocked(j), fmt.Errorf("job %s has no report (state %s)", id, j.state)
	}
	return j.json, m.statusLocked(j), nil
}

// jobObserver bridges campaign events into the job: it captures the
// driver-independent progress (rounds) and fans it out to subscribers.
// Campaign observers may be called from pool goroutines; everything here
// locks through the manager.
type jobObserver struct {
	csnake.NopObserver
	m *Manager
	j *Job
}

func (o *jobObserver) RoundCompleted(r csnake.Round) {
	jr := report.JSONRoundOf(r, o.j.bugs)
	o.m.mu.Lock()
	o.j.putRound(jr)
	o.m.roundsTotal++
	o.m.mu.Unlock()
	o.j.events.publish(Event{Type: "round", Job: o.j.ID, Round: &jr}, nil)
	if h := o.m.roundHook; h != nil {
		h(o.j, jr.Round)
	}
}
