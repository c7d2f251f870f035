// This file holds Campaign, the first-class handle on one CSnake
// detection campaign: a builder constructed from functional options,
// driving a (possibly parallel) harness.Driver, observable through an
// event stream, and cancellable through a context. Campaign.Run is the
// only way to run a campaign, and the Report it returns the only
// artifact: everything downstream (tables, phase attribution, offline
// re-search, the service) reads the report and its graph.

package csnake

import (
	"context"
	"io"
	"time"

	"repro/internal/core/beam"
	"repro/internal/core/fca"
	"repro/internal/faults"
	"repro/internal/harness"
	"repro/internal/systems/sysreg"
)

// Observer receives campaign progress events. It extends the driver-level
// harness.Observer with campaign lifecycle events; embed NopObserver to
// implement only the events of interest. With WithParallelism(n > 1) the
// driver-level events may be delivered from pool goroutines (one at a
// time, but not from the caller's goroutine).
type Observer interface {
	harness.Observer
	// CampaignStarted fires once, after the fault space is built: size is
	// |F| and budget the total experiment budget.
	CampaignStarted(system string, size, budget int)
	// CycleFound fires for every raw self-sustaining cycle the beam
	// search reports, in score order.
	CycleFound(c beam.Cycle)
	// CampaignFinished fires once with the complete report (it does not
	// fire when the campaign is cancelled).
	CampaignFinished(rep *Report)
}

// RoundObserver is an optional extension a campaign Observer may
// implement to receive per-round anytime events: after every executed
// wave, and before the next one starts, it gets the round summary (wave
// size, graph delta counts, the cycle set known so far). Batch campaigns
// emit no round events.
type RoundObserver interface {
	RoundCompleted(r Round)
}

// NopObserver implements Observer with no-ops, for embedding.
type NopObserver struct{}

func (NopObserver) ProfileCached(string, int)                      {}
func (NopObserver) ExperimentExecuted(faults.ID, string, int, int) {}
func (NopObserver) EdgeDiscovered(fca.Edge)                        {}
func (NopObserver) CampaignStarted(string, int, int)               {}
func (NopObserver) CycleFound(beam.Cycle)                          {}
func (NopObserver) CampaignFinished(*Report)                       {}

// Campaign is a configured, reusable campaign description. Build one with
// NewCampaign and execute it with Run; each execution creates a fresh
// driver, so a Campaign value can be run repeatedly.
type Campaign struct {
	sys      sysreg.System
	cfg      Config
	par      int
	obs      Observer
	ctx      context.Context
	ckptFn   func(*Checkpoint)
	resume   *Checkpoint
	traceOut io.Writer
}

// Option mutates a Campaign under construction.
type Option func(*Campaign)

// NewCampaign builds a campaign against sys. Without options it runs
// DefaultConfig(42): paper-faithful parameters, serial execution, no
// observer, background context.
func NewCampaign(sys sysreg.System, opts ...Option) *Campaign {
	c := &Campaign{
		sys: sys,
		cfg: DefaultConfig(42),
		par: 1,
		ctx: context.Background(),
	}
	for _, o := range opts {
		o(c)
	}
	return c
}

// WithConfig replaces the whole Config (applied before later options, so
// it composes with WithReps etc. regardless of order only when first).
// Parallelism is set with WithParallelism alone; cfg.Harness.Parallelism
// is ignored.
func WithConfig(cfg Config) Option { return func(c *Campaign) { c.cfg = cfg } }

// WithSeed sets the campaign seed driving all random choices.
func WithSeed(seed int64) Option { return func(c *Campaign) { c.cfg.Seed = seed } }

// WithReps sets the number of seeds per run configuration; n <= 0 keeps
// the current value.
func WithReps(n int) Option {
	return func(c *Campaign) {
		if n > 0 {
			c.cfg.Harness.Reps = n
		}
	}
}

// WithDelayMagnitudes sets the delay-injection magnitude sweep; an empty
// list keeps the current value.
func WithDelayMagnitudes(mags ...time.Duration) Option {
	return func(c *Campaign) {
		if len(mags) > 0 {
			c.cfg.Harness.DelayMagnitudes = append([]time.Duration(nil), mags...)
		}
	}
}

// WithBaseSeed sets the harness base seed offsetting all run seeds.
func WithBaseSeed(s int64) Option { return func(c *Campaign) { c.cfg.Harness.BaseSeed = s } }

// WithFCA sets the fault-causality-analysis configuration.
func WithFCA(cfg fca.Config) Option { return func(c *Campaign) { c.cfg.Harness.FCA = cfg } }

// WithBudgetFactor scales |F| into the experiment budget; n <= 0 keeps
// the current value.
func WithBudgetFactor(n int) Option {
	return func(c *Campaign) {
		if n > 0 {
			c.cfg.BudgetFactor = n
		}
	}
}

// WithClusterThreshold sets the causally-equivalent-fault merge cutoff.
func WithClusterThreshold(t float64) Option {
	return func(c *Campaign) { c.cfg.ClusterThreshold = t }
}

// WithBeam sets the cycle-search options.
func WithBeam(opt beam.Options) Option { return func(c *Campaign) { c.cfg.Beam = opt } }

// WithProtocol selects the allocation protocol (3PA, the §8.2 random
// baseline, or the adaptive near-cycle-chasing variant).
func WithProtocol(p ProtocolKind) Option { return func(c *Campaign) { c.cfg.Protocol = p } }

// WithAnytime switches the campaign to the round-based streaming
// pipeline: waves of experiments, per-wave graph deltas, an incremental
// cycle search after every round, and per-round convergence data in
// Report.Rounds. The final report of a full anytime campaign is
// identical to the batch campaign's.
func WithAnytime() Option { return func(c *Campaign) { c.cfg.Anytime = true } }

// WithEarlyStop stops an anytime campaign once the clustered cycle set
// is non-empty and stable for k consecutive rounds (implies anytime);
// k <= 0 keeps the current value.
func WithEarlyStop(k int) Option {
	return func(c *Campaign) {
		if k > 0 {
			c.cfg.Anytime = true
			c.cfg.EarlyStopRounds = k
		}
	}
}

// WithWaveSize sets the experiments-per-round granularity of an anytime
// campaign; n <= 0 keeps the default (|F| runs per round).
func WithWaveSize(n int) Option {
	return func(c *Campaign) {
		if n > 0 {
			c.cfg.WaveSize = n
		}
	}
}

// WithParallelism bounds how many simulated runs execute concurrently.
// Results are bit-identical for every value; n <= 1 means serial.
func WithParallelism(n int) Option {
	return func(c *Campaign) {
		if n < 1 {
			n = 1
		}
		c.par = n
	}
}

// WithWorkerPool layers a shared simulation budget under the campaign's
// parallelism: every simulated run must hold both a campaign worker slot
// (WithParallelism) and a token from pool while it executes, so several
// campaigns sharing one pool are bounded by its capacity in total. The
// pool affects only scheduling, never results -- a campaign squeezed
// through a shared pool is byte-identical to the same campaign running
// alone. nil keeps the campaign unshared.
func WithWorkerPool(pool *harness.TokenPool) Option {
	return func(c *Campaign) { c.cfg.Harness.Pool = pool }
}

// WithObserver installs a campaign observer (nil disables events).
func WithObserver(o Observer) Option { return func(c *Campaign) { c.obs = o } }

// WithContext attaches a cancellation context: once it is cancelled the
// campaign stops launching simulations and Run returns ctx.Err() along
// with whatever partial results exist.
func WithContext(ctx context.Context) Option {
	return func(c *Campaign) {
		if ctx != nil {
			c.ctx = ctx
		}
	}
}

// Config returns the resolved campaign configuration.
func (c *Campaign) Config() Config { return c.cfg }

// Parallelism returns the resolved worker-pool width.
func (c *Campaign) Parallelism() int { return c.par }

// System returns the campaign's target system.
func (c *Campaign) System() sysreg.System { return c.sys }

// Run executes the campaign: profile runs, budgeted fault injection, FCA,
// and the beam search. On cancellation it returns the partial report and
// the context error. The internal driver is torn down before returning
// (its pooled traces released).
func (c *Campaign) Run() (*Report, error) {
	rep, driver, err := c.run()
	driver.Release()
	return rep, err
}

// run is Run before the teardown: it also returns the driver, which the
// in-package tests of the release contract inspect.
func (c *Campaign) run() (*Report, *harness.Driver, error) {
	cfg := c.cfg
	space := sysreg.Space(c.sys)
	hcfg := cfg.Harness
	hcfg.Parallelism = c.par
	driver := harness.New(c.sys, space, hcfg)
	driver.Bind(c.ctx)

	budgetFactor := cfg.BudgetFactor
	if budgetFactor == 0 {
		budgetFactor = 4
	}
	if c.obs != nil {
		c.obs.CampaignStarted(c.sys.Name(), space.Size(), budgetFactor*space.Size())
	}

	rep := &Report{System: c.sys.Name(), Space: space}
	// Resolve the effective nest families once: the in-process beam
	// search, the graph annotations, and hence any offline re-search all
	// use the same map (including a caller-supplied override).
	if cfg.Beam.NestGroups == nil {
		cfg.Beam.NestGroups = NestGroups(space)
	}
	// The trace export preamble needs the resolved nest families, so the
	// observer (progress + optional trace tap) is installed only now,
	// before any simulation runs.
	tw, texp := c.installTraceExport(cfg, fca.StaticLoopEdges(space))
	if o := harness.MultiObserver(c.obs, texp); o != nil {
		driver.Observe(o)
	}
	// capture snapshots the driver's causal graph and annotates it with
	// everything a detached re-search needs: per-fault SimScores (when the
	// 3PA clustering produced any) and the loop-nest families. A graph
	// persisted from the report therefore re-searches identically offline.
	capture := func() {
		rep.Graph = driver.Graph()
		for f, gi := range cfg.Beam.NestGroups {
			rep.Graph.SetNestGroup(f, gi)
		}
		if rep.Alloc != nil {
			for _, f := range space.IDs() {
				rep.Graph.SetScore(f, rep.Alloc.SimScoreOf(f))
			}
		}
		rep.Edges = rep.Graph.Edges()
		rep.Sims = driver.SimCount()
		if tw != nil {
			// Scores ride the trace too (last record wins on replay), so a
			// monitor's re-search ranks cycles like the offline one.
			if rep.Alloc != nil {
				for _, f := range space.IDs() {
					tw.Score(f, rep.Alloc.SimScoreOf(f))
				}
			}
			tw.Flush()
		}
	}

	driver.ProfileAll()
	if err := c.ctx.Err(); err != nil {
		capture()
		return rep, driver, err
	}
	return c.runRounds(cfg, space, driver, rep, capture)
}
