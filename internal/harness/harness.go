// Package harness is CSnake's workload driver (§3): it executes profile
// and injection runs of (fault, workload) pairs against a target system,
// repeats each configuration across seeds, caches profile runs and
// coverage, applies fault causality analysis, and accumulates the causal
// edges into an interned graph.Graph -- deduplicated by construction and
// sliceable into per-experiment prefixes -- consumed by the bug detector.
//
// The driver's internal state is mutex-guarded, and when
// Config.Parallelism > 1 the seeded simulation runs of a run set (and the
// magnitude sweep of a delay experiment) fan out across a bounded worker
// pool; every run owns an independent sim.Engine, and results are merged
// in deterministic (plan, seed-index) order, so a parallel campaign is
// bit-identical to a serial one. Experiments have one body and one entry
// point: ExecuteWave runs each entry of a wave into a private graph.Shard
// (no shared lock on the hot path) and seals the shards into the campaign
// graph in wave order -- one experiment at a time on a serial driver,
// fanned across the pool on a parallel one -- so the edge stream, intern
// tables, mark boundaries, and observer event order do not depend on the
// parallelism; Execute is a one-entry wave. Profile/TestsFor/read
// accessors may be called from any goroutine, but ExecuteWave (and
// Execute) calls must be issued serially relative to each other (as the
// allocation schedules do): concurrent calls would interleave edge
// insertions between mark boundaries and corrupt the experiment-to-edge
// attribution of Graph().Prefix(n).
package harness

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core/alloc"
	"repro/internal/core/fca"
	"repro/internal/core/graph"
	"repro/internal/faults"
	"repro/internal/inject"
	"repro/internal/sim"
	"repro/internal/systems/sysreg"
	"repro/internal/trace"
)

// Config tunes the driver.
type Config struct {
	// Reps is the number of seeds each run configuration is repeated with
	// (paper: 5).
	Reps int
	// DelayMagnitudes are the spin lengths swept per delay injection
	// (paper: seven values, 100ms-8s).
	DelayMagnitudes []time.Duration
	// BaseSeed offsets all run seeds, so campaigns are reproducible but
	// distinct.
	BaseSeed int64
	// FCA configures the counterfactual criteria.
	FCA fca.Config
	// Parallelism bounds how many simulated runs execute concurrently;
	// 0 or 1 means strictly serial execution. Results are independent of
	// the value (deterministic merge order).
	Parallelism int
	// Pool, when set, layers a shared cross-campaign simulation budget
	// under Parallelism: every run additionally holds one pool token
	// while it executes, so many drivers sharing a pool are bounded in
	// total. Results are independent of the pool (and of contention on
	// it); see TokenPool.
	Pool *TokenPool
}

// DefaultConfig returns the paper's execution parameters.
func DefaultConfig() Config {
	return Config{
		Reps:            5,
		DelayMagnitudes: inject.DelayMagnitudes,
		BaseSeed:        1,
		FCA:             fca.DefaultConfig(),
	}
}

func (c *Config) defaults() {
	if c.Reps == 0 {
		c.Reps = 5
	}
	if len(c.DelayMagnitudes) == 0 {
		c.DelayMagnitudes = inject.DelayMagnitudes
	}
	if c.FCA.PValue == 0 {
		c.FCA = fca.DefaultConfig()
	}
	if c.Parallelism < 1 {
		c.Parallelism = 1
	}
}

// Observer receives driver-level progress events. The driver serializes
// the calls (no two events are delivered concurrently), but when
// Parallelism > 1 events from overlapping profile runs may arrive in any
// relative order.
type Observer interface {
	// ProfileCached fires once per workload, after its profile run set is
	// computed and cached; sims is the number of seeded runs it took.
	ProfileCached(test string, sims int)
	// ExperimentExecuted fires after each injection experiment with the
	// number of causal edges and interfered faults it discovered. It is
	// not emitted for experiments skipped after context cancellation,
	// even though their (empty) run records and marks still exist.
	ExperimentExecuted(fault faults.ID, test string, edges, interference int)
	// EdgeDiscovered fires for every dynamic causal edge FCA accepts.
	EdgeDiscovered(e fca.Edge)
}

// profileEntry caches one workload's profile run set and coverage map.
// The once gate means concurrent lookups compute the set exactly once.
type profileEntry struct {
	once sync.Once
	set  *trace.Set
	cov  map[faults.ID]bool
}

// Driver executes runs for one system. It implements alloc.Executor, so a
// 3PA protocol (or the random baseline) can schedule experiments directly
// against it.
type Driver struct {
	sys   sysreg.System
	space *faults.Space
	cfg   Config
	ctx   context.Context

	workloads map[string]sysreg.Workload
	order     []string

	// sem bounds concurrently-executing simulation runs (nil when serial).
	sem chan struct{}

	// pool recycles trace.Run records across seeded repetitions: injection
	// run sets are released back after FCA extracts their evidence, so a
	// campaign's steady state allocates no new trace state per run.
	pool *trace.Pool

	// mu guards the edge graph and the profiles map (the entries gate
	// themselves via sync.Once).
	mu       sync.Mutex
	profiles map[string]*profileEntry

	// g accumulates the interned causal graph: static ICFG/CFG loop edges
	// are pre-inserted at construction (they order after every dynamic
	// edge when materialized), dynamic edges insert as FCA discovers them
	// (deduplicating by construction), and Mark records experiment
	// boundaries for prefix snapshots.
	g *graph.Graph

	// emitMu serializes observer callbacks.
	emitMu sync.Mutex
	obs    Observer

	sims atomic.Int64
}

// New builds a driver over sys.
func New(sys sysreg.System, space *faults.Space, cfg Config) *Driver {
	cfg.defaults()
	d := &Driver{
		sys:       sys,
		space:     space,
		cfg:       cfg,
		ctx:       context.Background(),
		workloads: make(map[string]sysreg.Workload),
		profiles:  make(map[string]*profileEntry),
		g:         graph.New(),
		pool:      trace.NewPool(space),
	}
	d.g.SetSystem(sys.Name())
	d.g.AddStatic(fca.StaticLoopEdges(space))
	if cfg.Parallelism > 1 {
		d.sem = make(chan struct{}, cfg.Parallelism)
	}
	for _, w := range sys.Workloads() {
		d.workloads[w.Name] = w
		d.order = append(d.order, w.Name)
	}
	return d
}

// Bind attaches a cancellation context: once ctx is cancelled the driver
// stops launching simulation runs and every Execute/Profile call returns
// promptly (with incomplete results).
func (d *Driver) Bind(ctx context.Context) {
	if ctx != nil {
		d.ctx = ctx
	}
}

// Observe installs a progress observer (nil disables events).
func (d *Driver) Observe(o Observer) {
	d.emitMu.Lock()
	d.obs = o
	d.emitMu.Unlock()
}

// Space returns the system's filtered fault space.
func (d *Driver) Space() *faults.Space { return d.space }

// Workloads returns the workload names in declaration order.
func (d *Driver) Workloads() []string { return append([]string(nil), d.order...) }

// SimCount returns the number of simulated executions performed so far.
func (d *Driver) SimCount() int { return int(d.sims.Load()) }

// CheckpointStats is always zero: bench/traced.go still links it, and the
// next benchmark PR removes it, CheckpointStats() and the four
// harness.prefix_* rows together.
type CheckpointStats struct{ Hits, Clones, Misses int64 }

// Avoided returns Hits + Clones.
func (s CheckpointStats) Avoided() int64 { return s.Hits + s.Clones }

// CheckpointStats returns the zero value (see the type).
func (d *Driver) CheckpointStats() CheckpointStats { return CheckpointStats{} }

// cancelled reports whether the bound context is done.
func (d *Driver) cancelled() bool { return d.ctx.Err() != nil }

func (d *Driver) emitProfile(test string, sims int) {
	d.emitMu.Lock()
	defer d.emitMu.Unlock()
	if d.obs != nil {
		d.obs.ProfileCached(test, sims)
	}
}

// FanOut runs fn(0), ..., fn(n-1) across at most parallelism goroutines
// and waits for all of them; parallelism <= 1 runs them inline in index
// order. The baselines share this pool shape with the driver.
func FanOut(parallelism, n int, fn func(int)) {
	if parallelism <= 1 || n <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	if parallelism > n {
		parallelism = n
	}
	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < parallelism; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				fn(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		idx <- i
	}
	close(idx)
	wg.Wait()
}

// each spawns one goroutine per index (bounded by the run-level
// semaphore acquired in runOnce) when the driver is parallel, or runs
// inline when serial. Unlike FanOut it may nest: outer levels (workloads)
// hold no pool token while inner levels (seeded runs) execute.
//
// A panic on a worker goroutine is captured and re-raised on the calling
// goroutine after all workers finish, so a crashing simulation surfaces
// where the campaign runs (and a service wrapping campaigns in jobs can
// recover it per job) instead of killing the whole process from an
// anonymous goroutine.
func (d *Driver) each(n int, fn func(int)) {
	if d.sem == nil || n <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var (
		wg        sync.WaitGroup
		panicOnce sync.Once
		panicked  any
	)
	wg.Add(n)
	for i := 0; i < n; i++ {
		go func(i int) {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					panicOnce.Do(func() { panicked = r })
				}
			}()
			fn(i)
		}(i)
	}
	wg.Wait()
	if panicked != nil {
		panic(panicked)
	}
}

// runOnce executes a single simulated run of workload w under plan.
// When record is false the trace recorder is disabled (overhead baseline).
// Returns nil (without simulating) once the bound context is cancelled.
func (d *Driver) runOnce(w sysreg.Workload, plan inject.Plan, seed int64, record bool) *trace.Run {
	if d.sem != nil {
		d.sem <- struct{}{}
		defer func() { <-d.sem }()
	}
	if p := d.cfg.Pool; p != nil {
		// The local worker slot is held while waiting for a shared token;
		// tokens are always released after a finite run, so the layered
		// acquisition cannot deadlock.
		if !p.Acquire(d.ctx) {
			return nil
		}
		defer p.Release()
	}
	if d.cancelled() {
		return nil
	}
	var rec *trace.Run
	if record {
		rec = d.pool.Get(w.Name, seed)
	}
	rt := inject.New(plan, rec)
	eng := sim.NewEngine(sim.Options{Seed: seed})
	// Deferred so a panicking process does not strand the engine's other
	// parked processes when the panic is recovered further up.
	defer eng.Close()
	ctx := &sysreg.RunContext{Engine: eng, RT: rt}
	start := time.Now()
	w.Run(ctx)
	res := eng.Run(w.Horizon)
	d.sims.Add(1)
	res.Events = eng.Events()
	if rec != nil {
		rec.Result = res
		rec.Wall = time.Since(start)
	}
	return rec
}

// seedsOf expands a salt into the cfg.Reps consecutive run seeds of a
// run set: the (salt, rep) grid every profile and injection set draws
// from.
func (d *Driver) seedsOf(salt int64) []int64 {
	seeds := make([]int64, d.cfg.Reps)
	for ri := range seeds {
		seeds[ri] = d.cfg.BaseSeed + salt*1_000_003 + int64(ri)
	}
	return seeds
}

// runSets executes the seeded runs of every plan (seeds[pi] lists plan
// pi's run seeds), fanning the (plan, rep) grid across the worker pool,
// and merges the results in deterministic (plan, seed-index) order.
func (d *Driver) runSets(w sysreg.Workload, plans []inject.Plan, seeds [][]int64) []*trace.Set {
	reps := d.cfg.Reps
	runs := make([]*trace.Run, len(plans)*reps)
	d.each(len(runs), func(j int) {
		pi, ri := j/reps, j%reps
		runs[j] = d.runOnce(w, plans[pi], seeds[pi][ri], true)
	})
	sets := make([]*trace.Set, len(plans))
	for pi := range plans {
		set := &trace.Set{}
		for ri := 0; ri < reps; ri++ {
			if r := runs[pi*reps+ri]; r != nil {
				set.Add(r)
			}
		}
		sets[pi] = set
	}
	return sets
}

// runSet executes cfg.Reps seeded runs of (w, plan).
func (d *Driver) runSet(w sysreg.Workload, plan inject.Plan, salt int64) *trace.Set {
	return d.runSets(w, []inject.Plan{plan}, [][]int64{d.seedsOf(salt)})[0]
}

// entry returns the cache slot of a workload's profile, creating it on
// first use; it panics for unknown workloads.
func (d *Driver) entry(test string) *profileEntry {
	d.mu.Lock()
	defer d.mu.Unlock()
	if e, ok := d.profiles[test]; ok {
		return e
	}
	if _, ok := d.workloads[test]; !ok {
		panic(fmt.Sprintf("harness: unknown workload %q", test))
	}
	e := &profileEntry{}
	d.profiles[test] = e
	return e
}

// profile computes (once) and returns the cached profile entry.
func (d *Driver) profile(test string) *profileEntry {
	e := d.entry(test)
	e.once.Do(func() {
		w := d.workloads[test]
		e.set = d.runSet(w, inject.Profile(), saltOf(test, ""))
		e.cov = e.set.Coverage()
		d.emitProfile(test, len(e.set.Runs))
	})
	return e
}

// Profile returns (running and caching on first use) the profile run set
// of a workload: the counterfactual baseline FCA diffs every injection run
// against. Five seeds (cfg.Reps) absorb scheduling nondeterminism, exactly
// as in §4.3.
func (d *Driver) Profile(test string) *trace.Set {
	return d.profile(test).set
}

// ProfileAll forces profile runs of every workload (coverage map
// construction), fanning the workloads out across the pool when the
// driver is parallel.
func (d *Driver) ProfileAll() {
	d.each(len(d.order), func(i int) {
		d.profile(d.order[i])
	})
}

// releaseSets returns every run of the given sets to the driver's pool.
func (d *Driver) releaseSets(sets []*trace.Set) {
	for _, s := range sets {
		for _, r := range s.Runs {
			d.pool.Put(r)
		}
		s.Runs = nil
	}
}

// OverheadSamples is the number of paired (instrumented, bare) profile
// executions OverheadSample averages over: single wall-clock pairs are
// dominated by allocator warm-up noise (§8.5 measurement discipline).
const OverheadSamples = 5

// OverheadSample measures the §8.5 instrumentation overhead for one
// workload: it executes OverheadSamples paired profile runs -- monitoring
// on, then monitoring off, with the same seed -- at seeds seed..seed+4 and
// returns the summed wall-clock times of each mode. This is the single
// source of truth for the overhead measurement; the report tables and the
// bench harness both call it directly.
func (d *Driver) OverheadSample(test string, seed int64) (instrumented, bare time.Duration) {
	w, ok := d.workloads[test]
	if !ok {
		panic(fmt.Sprintf("harness: unknown workload %q", test))
	}
	for i := 0; i < OverheadSamples; i++ {
		s := seed + int64(i)
		start := time.Now()
		rec := d.runOnce(w, inject.Profile(), s, true)
		instrumented += time.Since(start)
		d.pool.Put(rec)
		start = time.Now()
		d.runOnce(w, inject.Profile(), s, false)
		bare += time.Since(start)
	}
	return
}

// TestsFor implements alloc.Executor: the workloads whose profile runs
// cover f, with their total coverage as the phase-one ranking key.
// Coverage lookups go through the shared, lock-protected profile cache:
// profiling on demand stays (a cold cache still fills deterministically,
// in workload-declaration order when serial), but repeated allocation
// queries never re-run simulations or recompute coverage maps.
func (d *Driver) TestsFor(f faults.ID) []alloc.TestInfo {
	var out []alloc.TestInfo
	for _, name := range d.order {
		e := d.profile(name)
		if e.cov[f] {
			out = append(out, alloc.TestInfo{Name: name, Coverage: len(e.cov)})
		}
	}
	return out
}

// Execute implements alloc.Executor: the full injection experiment for
// fault f under the named workload, run as a one-entry wave. It returns
// the additional fault ids triggered.
func (d *Driver) Execute(f faults.ID, test string) []faults.ID {
	recs, _ := d.ExecuteWave([]alloc.PlannedRun{{Fault: f, Test: test}})
	return recs[0].Intf
}

// ExecuteWave executes one scheduled wave of experiments and returns the
// completed run records together with the causal-graph delta the wave
// contributed: the new and evidence-extended edges plus the fault ids
// they touch. The delta is the handoff artifact of the campaign's round
// loop (incremental search, round observers); like everything else the
// driver produces, it is deterministic for a given campaign
// configuration, serial or parallel.
//
// Every experiment accumulates into a private graph.Shard (edges, marks,
// and the precomputed occurrence intern keys -- no shared lock on the
// hot path) and buffers its observer events; sealing it merges the shard
// into the campaign graph and replays the events. Seals happen in wave
// order, so the raw edge sequence, intern tables, mark boundaries, OccCap
// evidence merges, and the observer/trace-export stream are the same at
// every parallelism. A serial driver (and a one-entry wave) seals each
// experiment before the next one starts simulating: progress observers
// stream, and a cancellation raised from one lands between experiments
// even when the wave spans a whole allocation phase. A parallel driver
// runs the wave's experiments concurrently -- each still fanning its own
// (magnitude x rep) grid across the pool -- and seals after the fan-out.
func (d *Driver) ExecuteWave(wave []alloc.PlannedRun) ([]alloc.RunRecord, graph.Delta) {
	d.mu.Lock()
	start := d.g.RawLen()
	d.mu.Unlock()
	recs := make([]alloc.RunRecord, len(wave))
	seal := func(i int, res *waveResult) {
		d.mu.Lock()
		d.g.MergeShard(&res.shard)
		d.mu.Unlock()
		recs[i] = alloc.RunRecord{
			Fault: wave[i].Fault, Test: wave[i].Test, Phase: wave[i].Phase,
			Intf: res.intf,
		}
		d.emitWaveResult(res)
	}
	if d.sem == nil || len(wave) <= 1 {
		for i, pr := range wave {
			seal(i, d.executeShard(pr.Fault, pr.Test))
		}
	} else {
		results := make([]*waveResult, len(wave))
		d.each(len(wave), func(i int) {
			results[i] = d.executeShard(wave[i].Fault, wave[i].Test)
		})
		for i, res := range results {
			seal(i, res)
		}
	}
	d.mu.Lock()
	delta := d.g.DeltaSince(start)
	d.mu.Unlock()
	return recs, delta
}

// waveResult is one experiment's buffered outcome: the private edge
// shard plus the observer events to replay -- in wave order, after the
// shard merge -- when the experiment is sealed.
type waveResult struct {
	fault faults.ID
	test  string
	intf  []faults.ID
	shard graph.Shard
	// edges holds the per-plan FCA edge batches in analysis order;
	// executed is false for experiments skipped after cancellation
	// (their empty mark still merges, but no events are emitted).
	edges    [][]fca.Edge
	executed bool
}

// executeShard is the experiment body: it runs the injection experiment
// for fault f under the named workload -- Reps seeds, and for delay
// faults the whole magnitude sweep -- applies FCA against the workload's
// profile set, and collects the additional fault ids triggered. The
// (magnitude x rep) grid executes on the worker pool; FCA itself runs
// serially in magnitude order, so the edge stream is deterministic.
// Edges and the experiment mark accumulate into a private shard (with
// occurrence intern keys precomputed off-lock) and observer events are
// buffered; ExecuteWave merges the shard and replays the events in
// deterministic wave order.
func (d *Driver) executeShard(f faults.ID, test string) *waveResult {
	res := &waveResult{fault: f, test: test}
	pt, ok := d.space.Lookup(f)
	if !ok {
		// Unknown faults run nothing and leave no mark.
		return res
	}
	w, wok := d.workloads[test]
	if !wok {
		panic(fmt.Sprintf("harness: unknown workload %q", test))
	}
	profile := d.Profile(test)

	// Every injection plan runs at the workload's *profile* seeds (the
	// same salt the profile cache uses): each injected run is then an
	// exact counterfactual twin of a cached profile run -- same workload,
	// same seed, only the fault differs -- which sharpens FCA's
	// profile-vs-injection diff: whatever the two runs disagree on, the
	// injection caused.
	var plans []inject.Plan
	var seeds [][]int64
	if pt.Kind == faults.Loop {
		for mi, mag := range d.cfg.DelayMagnitudes {
			plans = append(plans, inject.PlanFor(pt, mag))
			seeds = append(seeds, d.planSeeds(test, f, mi))
		}
	} else {
		plans = append(plans, inject.PlanFor(pt, 0))
		seeds = append(seeds, d.planSeeds(test, f, 0))
	}
	sets := d.runSets(w, plans, seeds)
	// Injection runs are consumed by FCA below (which copies out the
	// occurrence evidence it keeps); recycle them once analysed. Profile
	// runs are cached for the campaign's lifetime and never released.
	defer d.releaseSets(sets)

	if d.cancelled() {
		// Partial run sets would make FCA nondeterministic; record an
		// empty experiment so mark indices stay aligned with run records.
		res.shard.Mark()
		return res
	}

	intfSet := make(map[faults.ID]bool)
	for i, plan := range plans {
		edges, add := fca.Analyze(d.space, plan, test, profile, sets[i], d.cfg.FCA)
		res.shard.AddAll(edges)
		res.edges = append(res.edges, edges)
		for _, id := range add {
			if !intfSet[id] {
				intfSet[id] = true
				res.intf = append(res.intf, id)
			}
		}
	}
	sort.Slice(res.intf, func(i, j int) bool { return res.intf[i] < res.intf[j] })
	res.shard.Mark()
	res.executed = true
	return res
}

// emitWaveResult replays one experiment's buffered observer events under
// a single emitMu acquisition: per-edge discoveries in analysis order,
// then the experiment summary. ExecuteWave calls it in wave order, so
// trace exports are byte-identical at every parallelism.
func (d *Driver) emitWaveResult(res *waveResult) {
	if !res.executed {
		return
	}
	d.emitMu.Lock()
	defer d.emitMu.Unlock()
	if d.obs == nil {
		return
	}
	newEdges := 0
	for _, batch := range res.edges {
		for _, e := range batch {
			d.obs.EdgeDiscovered(e)
		}
		newEdges += len(batch)
	}
	d.obs.ExperimentExecuted(res.fault, res.test, newEdges, len(res.intf))
}

// AdoptGraph replaces the driver's pristine accumulated graph with g --
// the entry point for resuming a checkpointed campaign, where g is the
// round-sealed graph restored from persistence. It refuses to discard
// dynamic edges already accumulated (resume must install the graph
// before any Execute call) and to adopt a graph from a different
// system. The restored graph carries no experiment Marks, so per-phase
// prefix attribution is unavailable after a resume; everything else
// (edge intern order, evidence, DeltaSince) continues exactly where the
// checkpointed campaign left off.
func (d *Driver) AdoptGraph(g *graph.Graph) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.g.RawLen() != 0 {
		return fmt.Errorf("harness: AdoptGraph after %d dynamic edges accumulated", d.g.RawLen())
	}
	if g.System() != d.sys.Name() {
		return fmt.Errorf("harness: adopting graph for system %q into driver for %q", g.System(), d.sys.Name())
	}
	d.g = g
	return nil
}

// OffsetSims advances the simulation counter by n without running
// anything, so a resumed campaign reports cumulative SimCount across the
// interruption. n must be non-negative.
func (d *Driver) OffsetSims(n int) error {
	if n < 0 {
		return fmt.Errorf("harness: negative sim offset %d", n)
	}
	d.sims.Add(int64(n))
	return nil
}

// Graph returns a sealed snapshot of the full causal graph accumulated so
// far (dynamic edges plus the static ICFG/CFG loop edges): the indexed,
// serializable artifact the beam search, report tables, and cross-
// campaign stitching consume. The snapshot carries the per-experiment
// marks, so Graph().Prefix(n) is the graph as the first n experiments
// left it.
func (d *Driver) Graph() *graph.Graph {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.g.Snapshot()
}

// Edges returns the deduplicated causal edge set discovered so far,
// including the static ICFG/CFG loop edges.
func (d *Driver) Edges() []fca.Edge {
	return d.Graph().Edges()
}

// seedPoolSize is the per-workload seed pool width as a multiple of
// cfg.Reps. All plans of a workload draw their rep seeds from one pool
// of seedPoolSize*Reps seeds (rotated by fault and magnitude), under the
// workload's profile salt: injected runs are counterfactual seed twins
// of profile-family runs (see executeShard), while each experiment still
// sees a fault-and-magnitude-dependent seed subset (detection quality
// degrades measurably when all experiments are forced onto one shared
// subset).
const seedPoolSize = 6

// planSeeds returns the cfg.Reps run seeds for one plan of the (test,
// fault) experiment; mi is the magnitude index (0 for non-loop plans).
// Seeds are drawn from the workload's shared seed pool -- the same
// arithmetic family the profile set occupies (pool indices 0..Reps-1
// are exactly the profile seeds) -- with a rotation start derived from
// the fault id and magnitude.
func (d *Driver) planSeeds(test string, f faults.ID, mi int) []int64 {
	pool := seedPoolSize * d.cfg.Reps
	start := int((saltOf(test, string(f)) + int64(mi)*7919) % int64(pool))
	salt := saltOf(test, "")
	out := make([]int64, d.cfg.Reps)
	for ri := range out {
		out[ri] = d.cfg.BaseSeed + salt*1_000_003 + int64((start+ri)%pool)
	}
	return out
}

// saltOf derives a stable per-(test,fault) seed salt. The FNV-1a hash
// accumulates in uint64 and reduces from there: the previous int64
// accumulate-negate-mod dance mapped a hash of math.MinInt64 back onto
// itself (negation overflow), producing a negative salt. Note that
// uint64(h) % p differs from the old |h| % p whenever the hash's top bit
// is set (roughly half of all inputs), so all run seeds -- and hence the
// exact edge sets of campaigns replayed from before this change -- moved;
// within any one build, campaigns remain fully reproducible.
func saltOf(test, fault string) int64 {
	h := uint64(1469598103934665603)
	for _, s := range []string{test, fault} {
		for i := 0; i < len(s); i++ {
			h ^= uint64(s[i])
			h *= 1099511628211
		}
	}
	return int64(h % 1_000_000_007)
}
