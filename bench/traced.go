package main

import (
	"fmt"
	"math/rand"

	"repro/internal/core/alloc"
	"repro/internal/core/beam"
	"repro/internal/core/csnake"
	"repro/internal/core/fca"
	"repro/internal/core/graph"
	"repro/internal/faults"
	"repro/internal/harness"
	"repro/internal/systems/sysreg"
)

// timedExecutor wraps the driver so that every call the allocation layer
// makes into the harness is a span: what is left of the allocation
// span is the schedule's own time.
type timedExecutor struct {
	d  *harness.Driver
	tr *tracer
}

func (x timedExecutor) TestsFor(f faults.ID) []alloc.TestInfo { return x.d.TestsFor(f) }

func (x timedExecutor) Execute(f faults.ID, test string) (intf []faults.ID) {
	id := x.tr.do("harness.execute", func() { intf = x.d.Execute(f, test) })
	x.tr.spans[id].Count = 1
	return intf
}

func (x timedExecutor) ExecuteWave(wave []alloc.PlannedRun) (recs []alloc.RunRecord, delta graph.Delta) {
	id := x.tr.do("harness.execute", func() { recs, delta = x.d.ExecuteWave(wave) })
	x.tr.spans[id].Count = len(wave)
	return recs, delta
}

// experimentLog is the driver-level observer of the traced pipeline: it
// keeps which experiments ran and the edge stream each one emitted, the
// inputs of the isolated probes.
type experimentLog struct {
	runs    []alloc.PlannedRun
	edges   [][]fca.Edge
	pending []fca.Edge
}

func (l *experimentLog) ProfileCached(string, int) {}

func (l *experimentLog) EdgeDiscovered(e fca.Edge) { l.pending = append(l.pending, e) }

func (l *experimentLog) ExperimentExecuted(f faults.ID, test string, _, _ int) {
	l.runs = append(l.runs, alloc.PlannedRun{Fault: f, Test: test})
	l.edges = append(l.edges, l.pending)
	l.pending = nil
}

func (l *experimentLog) rawEdges() int {
	n := 0
	for _, b := range l.edges {
		n += len(b)
	}
	return n
}

// pipeline is the campaign re-assembled at parallelism 1 from the
// layers' public entry points, with what it produced.
type pipeline struct {
	sys         sysreg.System
	space       *faults.Space
	cfg         csnake.Config
	driver      *harness.Driver
	log         *experimentLog
	root        int // id of the csnake.campaign span
	profileSims int
	graph       *graph.Graph
	edges       int
	cycles      []beam.Cycle
	clusters    []beam.CycleCluster
	scoreOf     func(faults.ID) float64
	clusterOf   func(faults.ID) (int, bool)
	searchAlloc float64 // MB allocated by the one-shot search
}

// tracedCampaign runs the traced pipeline of a campaign workload: the
// stages Campaign.Run goes through, each under its own span.
func tracedCampaign(w workload, seed int64, tr *tracer) (*pipeline, error) {
	sys, ok := sysreg.Lookup(w.system)
	if !ok {
		return nil, fmt.Errorf("system %q not registered", w.system)
	}
	p := &pipeline{sys: sys, log: &experimentLog{}}
	p.cfg = csnake.NewCampaign(sys, w.options(seed)...).Config()
	p.root = tr.do("csnake.campaign", func() {
		tr.do("sysreg.space", func() { p.space = sysreg.Space(sys) })
		tr.do("harness.new", func() {
			hcfg := p.cfg.Harness
			hcfg.Parallelism = 1
			p.driver = harness.New(sys, p.space, hcfg)
			p.driver.Observe(p.log)
		})
		p.cfg.Beam.NestGroups = csnake.NestGroups(p.space)
		tr.do("harness.profile", p.driver.ProfileAll)
		p.profileSims = p.driver.SimCount()
		if w.anytime {
			p.runRounds(tr)
		} else {
			p.runBatch(tr)
		}
	})
	return p, nil
}

// capture seals the driver's graph the way the campaign does: snapshot,
// annotations, materialized edges.
func (p *pipeline) capture(tr *tracer, res *alloc.Result) {
	tr.do("graph.capture", func() {
		p.graph = p.driver.Graph()
		for f, gi := range p.cfg.Beam.NestGroups {
			p.graph.SetNestGroup(f, gi)
		}
		for _, f := range p.space.IDs() {
			p.graph.SetScore(f, res.SimScoreOf(f))
		}
		p.edges = len(p.graph.Edges())
	})
}

func (p *pipeline) scoring(res *alloc.Result) {
	p.scoreOf = res.SimScoreOf
	p.clusterOf = func(f faults.ID) (int, bool) {
		gi, ok := res.ClusterOf[f]
		return gi, ok
	}
}

// runBatch is the batch branch of Campaign.Run: 3PA to completion, one
// capture, one search, one clustering.
func (p *pipeline) runBatch(tr *tracer) {
	proto := &alloc.Protocol{
		Space:            p.space,
		BudgetFactor:     p.cfg.BudgetFactor,
		ClusterThreshold: p.cfg.ClusterThreshold,
		Rng:              rand.New(rand.NewSource(p.cfg.Seed)),
	}
	var res *alloc.Result
	tr.do("alloc.run", func() { res = proto.Run(timedExecutor{p.driver, tr}) })
	p.scoring(res)
	p.capture(tr, res)
	before := totalAlloc()
	tr.do("beam.search", func() { p.cycles = beam.SearchGraph(p.graph, p.scoreOf, p.cfg.Beam) })
	p.searchAlloc = float64(totalAlloc()-before) / mb
	tr.do("beam.cluster", func() { p.clusters = beam.ClusterCycles(p.cycles, p.clusterOf) })
}

// runRounds is the anytime loop, blocking: wave, fold, incremental
// search and clustering per round, then the final re-rank. The campaign
// overlaps a round's analysis with the next wave; here they run one
// after the other so that the spans add up.
func (p *pipeline) runRounds(tr *tracer) {
	ex := timedExecutor{p.driver, tr}
	sched := alloc.NewSchedule(alloc.ScheduleConfig{
		Space:            p.space,
		BudgetFactor:     p.cfg.BudgetFactor,
		ClusterThreshold: p.cfg.ClusterThreshold,
		Rng:              rand.New(alloc.NewCountedSource(p.cfg.Seed)),
	}, ex)
	res := sched.Result()
	p.scoring(res)
	inc := beam.NewIncremental(p.cfg.Beam)
	waveSize := p.cfg.WaveSize
	if waveSize <= 0 {
		waveSize = max(p.space.Size(), 1)
	}
	snapshot := func() (g *graph.Graph) {
		tr.do("graph.snapshot", func() { g = p.driver.Graph() })
		return g
	}
	for !sched.Done() {
		var wave []alloc.PlannedRun
		tr.do("alloc.next", func() { wave = sched.Next(waveSize) })
		if len(wave) == 0 {
			break
		}
		recs, delta := ex.ExecuteWave(wave)
		tr.do("alloc.fold", func() { sched.Fold(recs) })
		snap := snapshot()
		tr.do("beam.incremental", func() { p.cycles = inc.SearchDelta(snap, delta, p.scoreOf) })
		tr.do("beam.cluster", func() { p.clusters = beam.ClusterCycles(p.cycles, p.clusterOf) })
	}
	p.capture(tr, res)
	snap := snapshot()
	tr.do("beam.final_rerank", func() { p.cycles = inc.Search(snap, p.scoreOf) })
	tr.do("beam.cluster", func() { p.clusters = beam.ClusterCycles(p.cycles, p.clusterOf) })
}

// stageNames are the spans directly under csnake.campaign; they must add
// up to it.
var stageNames = []string{
	"sysreg.space", "harness.new", "harness.profile",
	"alloc.run", "alloc.next", "alloc.fold", "harness.execute",
	"graph.capture", "graph.snapshot",
	"beam.search", "beam.incremental", "beam.final_rerank", "beam.cluster",
}

// campaignTraced is the traced run of a campaign workload: one untraced
// rep for reference, the traced pipeline, then the isolated probes.
func campaignTraced(w workload, seed int64, tr *tracer, log func(string, ...any)) (*outcome, error) {
	out := newOutcome()
	ref, _, err := runCampaign(w, seed, &campaignObserver{})
	if err != nil {
		return nil, err
	}
	p, err := tracedCampaign(w, seed, tr)
	if err != nil {
		return nil, err
	}
	defer p.driver.Release()
	spans := tr.spans
	total := spans[p.root].dur()
	self := selfTime(spans, p.root)
	// The stages are the root's direct children, so what they leave
	// uncovered is the glue between them.
	residual := 100 * self.Seconds() / total.Seconds()
	out.check(p.edges == ref.edges, "traced pipeline has %d edges, Campaign.Run %d", p.edges, ref.edges)
	out.check(len(p.cycles) == ref.cycles, "traced pipeline has %d cycles, Campaign.Run %d", len(p.cycles), ref.cycles)
	out.check(len(p.clusters) == ref.clusters, "traced pipeline has %d clusters, Campaign.Run %d", len(p.clusters), ref.clusters)
	out.check(identityOf(len(p.cycles), p.clusters) == ref.identity, "traced pipeline's clusters differ from Campaign.Run's")
	out.check(residual <= 5, "stage spans miss the traced total by %.2f%%", residual)
	out.endOp()

	execute := tr.total("harness.execute")
	waves, experiments := tr.count("harness.execute")
	search := tr.total("beam.search")
	incremental := tr.total("beam.incremental")
	rerank := tr.total("beam.final_rerank")
	cluster := tr.total("beam.cluster")
	sims := p.driver.SimCount()
	ck := p.driver.CheckpointStats()

	log("traced pipeline: total=%.3fs (untraced rep %.3fs at parallelism %d)", total.Seconds(), ref.wall.Seconds(), w.parallelism())
	for _, name := range stageNames {
		if n, _ := tr.count(name); n > 0 {
			d := tr.selfOf(name)
			log("  %-18s %8.3fs %5.1f%%  (%d spans)", name, d.Seconds(), 100*d.Seconds()/total.Seconds(), n)
		}
	}
	log("  %-18s %8.3fs %5.1f%%", "csnake (self)", self.Seconds(), 100*self.Seconds()/total.Seconds())

	out.set("harness.profile_s", tr.total("harness.profile").Seconds())
	out.set("harness.profile_sims", float64(p.profileSims))
	out.set("harness.execute_s", execute.Seconds())
	out.set("harness.experiments", float64(experiments))
	out.set("harness.sims", float64(sims))
	out.set("harness.execute_sims_per_s", float64(sims-p.profileSims)/execute.Seconds())
	out.set("harness.prefix_hits", float64(ck.Hits))
	out.set("harness.prefix_clones", float64(ck.Clones))
	out.set("harness.prefix_misses", float64(ck.Misses))
	if injected := ck.Hits + ck.Clones + ck.Misses; injected > 0 {
		out.set("harness.prefix_avoided_ratio", float64(ck.Avoided())/float64(injected))
	}
	// The traced pipeline runs at parallelism 1. Against a parallel
	// untraced rep the ratio is the speed-up of the parallel path; against
	// a serial one it is what tracing costs.
	if w.parallelism() > 1 {
		out.set("harness.parallel_speedup", total.Seconds()/ref.wall.Seconds())
	} else {
		out.set("csnake.trace_overhead_pct", 100*(total.Seconds()-ref.wall.Seconds())/ref.wall.Seconds())
	}
	if w.anytime {
		out.set("alloc.schedule_self_s", (tr.total("alloc.next") + tr.total("alloc.fold")).Seconds())
	} else {
		out.set("alloc.schedule_self_s", tr.selfOf("alloc.run").Seconds())
	}
	out.set("alloc.waves", float64(waves))
	out.set("graph.capture_s", (tr.total("graph.capture") + tr.total("graph.snapshot")).Seconds())
	out.set("graph.raw_edges", float64(p.log.rawEdges()))
	out.set("graph.edges", float64(p.edges))
	out.set("beam.cycles", float64(len(p.cycles)))
	out.set("beam.cluster_s", cluster.Seconds())
	out.set("beam.clusters", float64(len(p.clusters)))
	if n := len(p.clusters); n > 0 {
		out.set("beam.cycles_per_cluster", float64(len(p.cycles))/float64(n))
	}
	rounds, _ := tr.count("beam.incremental")
	out.set("beam.incremental_s", incremental.Seconds())
	out.set("beam.incremental_rounds", float64(rounds))
	out.set("beam.incremental_max_round_s", tr.longest("beam.incremental").Seconds())
	out.set("beam.final_rerank_s", rerank.Seconds())
	out.set("csnake.self_s", self.Seconds())
	out.set("csnake.trace_residual_pct", residual)

	if d := search + incremental + rerank; d > 0 {
		out.set("beam.cycles_per_s", float64(len(p.cycles))/d.Seconds())
	}
	if w.anytime {
		// The one-shot search over the anytime run's final graph is what
		// campaign-search-heavy reports: the two rows must agree. It is a
		// reference probe, not on this row's path.
		var cycles []beam.Cycle
		before := totalAlloc()
		tr.do("probe.beam.search", func() { cycles = beam.SearchGraph(p.graph, p.scoreOf, p.cfg.Beam) })
		p.searchAlloc = float64(totalAlloc()-before) / mb
		clusters := beam.ClusterCycles(cycles, p.clusterOf)
		out.check(identityOf(len(cycles), clusters) == ref.identity, "one-shot search over the anytime graph differs from the anytime report")
		out.endOp()
		search = tr.total("probe.beam.search")
	}
	out.set("beam.search_s", search.Seconds())
	out.set("beam.search_alloc_mb", p.searchAlloc)

	probes(p, seed, tr, out, log)
	return out, nil
}
