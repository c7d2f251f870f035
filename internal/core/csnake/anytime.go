// This file holds the campaign's round loop: the allocation schedule
// emits waves of (fault, test) runs and the harness driver executes each
// wave and publishes the causal-graph delta it contributed. Under
// WithAnytime, WithEarlyStop, and ProtocolAdaptive an incremental beam
// search folds every delta into the cycle set before the next wave is
// planned -- so the campaign has a complete (and converging) answer after
// every round instead of only at the end, and every consumer of a round
// (observer, checkpoint sink, stop criterion) hears it at the same
// moment. A full anytime run executes exactly the experiments a batch
// campaign executes, accumulates exactly the same graph, and finishes
// with an identical report; early stopping trades the unspent budget for
// the answer already in hand.

package csnake

import (
	"math/rand"
	"sort"
	"strings"

	"repro/internal/core/alloc"
	"repro/internal/core/beam"
	"repro/internal/faults"
	"repro/internal/harness"
)

// runRounds drives the round loop every campaign runs, on the calling
// goroutine: build the schedule, alternate Next / ExecuteWave / Fold /
// round analysis until the budget is spent (or the campaign stops early
// or is cancelled), then capture, search, cluster, and fire
// CycleFound/CampaignFinished. capture seals the driver's graph into the
// report with its annotations. The campaign RNG rides a CountedSource so
// a checkpoint can record the draw position and a resumed campaign can
// fast-forward to it.
//
// A batch campaign (no WithAnytime/WithEarlyStop/ProtocolAdaptive) is the
// degenerate case: whole-phase waves (Next(0) plans to the next decision
// barrier), no per-round analysis -- hence no Report.Rounds and no
// RoundCompleted -- and one one-shot search at the end.
func (c *Campaign) runRounds(cfg Config, space *faults.Space, driver *harness.Driver,
	rep *Report, capture func()) (*Report, *harness.Driver, error) {

	perRound := cfg.Anytime || cfg.EarlyStopRounds > 0 || cfg.Protocol == ProtocolAdaptive
	if !perRound && c.resume != nil {
		// Batch campaigns re-run from scratch deterministically; a stale
		// checkpoint on one is a caller bug, not something to ignore.
		return rep, driver, resumeErr("batch campaigns do not resume")
	}

	src := alloc.NewCountedSource(cfg.Seed)
	rng := rand.New(src)

	// Resuming: install the checkpointed graph before the scheduler is
	// built (the random schedule re-shuffles its pool at construction,
	// consuming the same draws the original did; the adaptive weight hook
	// closes over the driver's graph).
	if c.resume != nil {
		if err := c.adoptResume(c.resume, cfg, driver); err != nil {
			return rep, driver, err
		}
	}

	sched := c.newScheduler(cfg, space, driver, rng)

	var roundNum, stable int
	var lastFP string
	if cp := c.resume; cp != nil {
		if err := sched.RestoreState(cp.Schedule); err != nil {
			return rep, driver, resumeErr("%v", err)
		}
		if err := src.FastForwardTo(cp.RNGDraws); err != nil {
			return rep, driver, resumeErr("%v", err)
		}
		if err := driver.OffsetSims(cp.Sims - driver.SimCount()); err != nil {
			return rep, driver, resumeErr("checkpoint sims %d below the campaign's own %d", cp.Sims, driver.SimCount())
		}
		roundNum, stable, lastFP = cp.Rounds, cp.Stable, cp.LastFingerprint
		// The checkpoint may already satisfy the early-stop criterion (the
		// original crashed between sealing its last round and finishing):
		// the resumed campaign must not run extra rounds past it.
		if cfg.EarlyStopRounds > 0 && stable >= cfg.EarlyStopRounds {
			rep.EarlyStopped = true
		}
	}

	// The random baseline never clusters or scores, so its result answers
	// constant 1 / unknown -- as the 3PA result does until the schedule has
	// clustered and scored.
	res := sched.Result()

	// A batch campaign takes whole-phase waves: Next(0) plans to the next
	// decision barrier.
	waveSize := 0
	if perRound {
		waveSize = cfg.WaveSize
		if waveSize <= 0 {
			waveSize = max(space.Size(), 1)
		}
	}
	inc := beam.NewIncremental(cfg.Beam)

	for !rep.EarlyStopped && !sched.Done() && c.ctx.Err() == nil {
		wave := sched.Next(waveSize)
		if len(wave) == 0 {
			break
		}
		recs, delta := driver.ExecuteWave(wave)
		sched.Fold(recs)
		if c.ctx.Err() != nil {
			// The wave was cut short: its empty experiments are folded (the
			// schedule stays consistent) but searching partial evidence
			// would not be meaningful.
			break
		}
		if !perRound {
			continue
		}

		// Round analysis, on the campaign goroutine between Fold and the
		// next Next: it reads the graph as wave k left it, the wave's delta
		// and the schedule's scoring state before a phase barrier in Next
		// can move it -- all pure functions of the configuration and the
		// executed schedule prefix, so a round is deterministic, and every
		// consumer (observer, checkpoint, stop criterion) has round k before
		// wave k+1 starts.
		cycles := inc.SearchDelta(driver.Graph(), delta, res.SimScoreOf)
		clusters := beam.ClusterCycles(cycles, clusterLookup(res))
		roundNum++
		r := Round{
			Round:         roundNum,
			Phase:         wave[len(wave)-1].Phase,
			Runs:          len(wave),
			Spent:         sched.Spent(),
			Budget:        sched.Budget(),
			NewEdges:      delta.New,
			TouchedEdges:  len(delta.Edges),
			TouchedFaults: len(delta.Faults),
			CycleCount:    len(cycles),
			Clusters:      compactClusters(clusters),
		}
		rep.Rounds = append(rep.Rounds, r)
		if ro, ok := c.obs.(RoundObserver); ok {
			ro.RoundCompleted(r)
		}
		fp := clusterFingerprint(clusters)
		if len(cycles) > 0 && fp == lastFP {
			stable++
		} else {
			stable = 0
		}
		lastFP = fp

		if c.ckptFn != nil {
			// Checkpoint persistence is best-effort: a round whose
			// checkpoint could not be built still completes, the campaign
			// just resumes from an earlier round after a crash.
			if cp, err := checkpointOf(c, cfg, driver, sched, src, roundNum, stable, lastFP); err == nil {
				c.ckptFn(cp)
			}
		}
		// stable > 0 implies the round just sealed has a non-empty cycle set.
		if cfg.EarlyStopRounds > 0 && stable >= cfg.EarlyStopRounds {
			rep.EarlyStopped = true
		}
	}

	if cfg.Protocol != ProtocolRandom {
		rep.Alloc = res
	}
	rep.Runs = res.Runs
	capture()
	if c.ctx.Err() != nil {
		return rep, driver, c.ctx.Err()
	}
	// Final search with the finished allocation's scores: the last
	// round's search can predate phase-two scoring (the schedule may
	// finish clustering and scoring only while planning later, empty
	// waves). The graph is unchanged since the last round, so the
	// searcher only re-folds its chain store -- unless its beam truncated
	// in some round, after which that round, every later one and this
	// search each re-enumerate the graph. On MetaStore light (seed 42)
	// that happens in round 3 of 6, at 5 284 cycles; the per-round costs,
	// and the anytime-vs-batch gap they add up to, are in
	// docs/MEASUREMENTS.md. A batch campaign's searcher has never
	// searched, so this is its one enumeration: the one-shot search.
	rep.Cycles = inc.Search(rep.Graph, res.SimScoreOf)
	rep.CycleClusters = beam.ClusterCycles(rep.Cycles, clusterLookup(res))
	// A cancellation racing the final search must still surface: the
	// contract is that a cancelled campaign always returns the context
	// error and never fires CampaignFinished.
	if err := c.ctx.Err(); err != nil {
		return rep, driver, err
	}
	if c.obs != nil {
		for _, cy := range rep.Cycles {
			c.obs.CycleFound(cy)
		}
		c.obs.CampaignFinished(rep)
	}
	return rep, driver, nil
}

// clusterLookup adapts a result's fault clustering to the lookup
// beam.ClusterCycles takes (unknown for faults never clustered).
func clusterLookup(res *alloc.Result) func(faults.ID) (int, bool) {
	return func(f faults.ID) (int, bool) {
		gi, ok := res.ClusterOf[f]
		return gi, ok
	}
}

// newScheduler builds the wave-emitting schedule for the configured
// protocol.
func (c *Campaign) newScheduler(cfg Config, space *faults.Space, driver *harness.Driver, rng *rand.Rand) alloc.Scheduler {
	if cfg.Protocol == ProtocolRandom {
		return alloc.NewRandomSchedule(space, cfg.BudgetFactor, rng, driver)
	}
	scfg := alloc.ScheduleConfig{
		Space:            space,
		BudgetFactor:     cfg.BudgetFactor,
		ClusterThreshold: cfg.ClusterThreshold,
		Rng:              rng,
	}
	if cfg.Protocol == ProtocolAdaptive {
		scfg.Phase3Weights = adaptiveWeights(driver, cfg.Beam)
	}
	return alloc.NewSchedule(scfg, driver)
}

// adaptiveWeights is ProtocolAdaptive's phase-three reallocation hook: at
// every phase-three wave boundary it probes the current causal graph for
// near-cycle faults and multiplies the draw weight of every cluster
// containing one by AdaptiveBoost. Deterministic: the graph is a pure
// function of the campaign configuration and the executed schedule
// prefix, serial or parallel.
func adaptiveWeights(driver *harness.Driver, opt beam.Options) func(*alloc.Result, []float64) []float64 {
	return func(res *alloc.Result, defaults []float64) []float64 {
		near := beam.NearCycleFaults(driver.Graph(), opt)
		if len(near) == 0 {
			return defaults
		}
		for gi, members := range res.Clusters {
			for _, f := range members {
				if near[f] {
					defaults[gi] *= AdaptiveBoost
					break
				}
			}
		}
		return defaults
	}
}

// compactClusters trims a clustered cycle set for retention in
// Report.Rounds: within each cluster, one representative cycle (the
// best-ranked) is kept per distinct injected-fault set. Bug labeling
// (LabelClusters) inspects only the injected-fault sets of a cluster's
// cycles, so per-round detection results are unchanged, while the
// retained memory stays O(clusters) instead of O(raw cycles) x rounds --
// cycle-dense targets grow six-figure raw cycle counts in late rounds.
func compactClusters(clusters []beam.CycleCluster) []beam.CycleCluster {
	out := make([]beam.CycleCluster, len(clusters))
	for i, cc := range clusters {
		seen := make(map[string]bool, 4)
		var members []beam.Cycle
		for _, cy := range cc.Cycles {
			fs := cy.Faults()
			ids := make([]string, len(fs))
			for j, f := range fs {
				ids[j] = string(f)
			}
			sort.Strings(ids)
			key := strings.Join(ids, ",")
			if !seen[key] {
				seen[key] = true
				members = append(members, cy)
			}
		}
		out[i] = beam.CycleCluster{Key: cc.Key, Cycles: members}
	}
	return out
}

// clusterFingerprint renders the identity of the clustered cycle set for
// the early-stop convergence check: the ordered cluster keys. Clusters
// group cycles by the causally-equivalent fault clusters involved -- the
// granularity reports and bug labeling operate at -- so the campaign has
// converged when no round adds or removes a cluster, even while later
// experiments keep multiplying raw member cycles inside existing
// clusters.
func clusterFingerprint(clusters []beam.CycleCluster) string {
	var b strings.Builder
	for _, cc := range clusters {
		b.WriteString(cc.Key)
		b.WriteByte('\n')
	}
	return b.String()
}
