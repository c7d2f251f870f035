package main

import (
	"time"

	"repro/internal/core/fca"
	"repro/internal/core/graph"
	"repro/internal/faults"
	"repro/internal/inject"
	"repro/internal/sim"
	"repro/internal/systems/sysreg"
	"repro/internal/trace"
)

// Probe sizes. They are part of the benchmark's definition: changing one
// changes what the per-layer numbers mean.
const (
	probeSeeds       = 3  // bare sim runs per workload
	probeExperiments = 8  // experiments whose run sets FCA re-analyses
	probeReplays     = 11 // graph accumulation replays (median reported)
)

// probes runs the isolated layer probes after the traced pipeline, on
// the pipeline's own inputs.
func probes(p *pipeline, seed int64, tr *tracer, out *outcome, log func(string, ...any)) {
	tr.do("probe.sim", func() { probeSim(p, seed, out) })
	tr.do("probe.trace", func() { probeTrace(p, seed, out) })
	tr.do("probe.fca", func() { probeFCA(p, out) })
	tr.do("probe.graph", func() { probeGraph(p, out) })
	for _, name := range []string{"probe.sim", "probe.trace", "probe.fca", "probe.graph"} {
		log("  %-18s %8.3fs", name, tr.total(name).Seconds())
	}
}

// simRun executes one simulated run of w through the sim layer's public
// calls, recording into rec when it is set, and returns the events the
// engine processed.
func simRun(w sysreg.Workload, plan inject.Plan, seed int64, rec *trace.Run) int {
	eng := sim.NewEngine(sim.Options{Seed: seed})
	w.Run(&sysreg.RunContext{Engine: eng, RT: inject.New(plan, rec)})
	res := eng.Run(w.Horizon)
	eng.Close()
	if rec != nil {
		rec.Result = res
	}
	return eng.Events()
}

// probeSim times bare profile runs of every workload of the system: the
// simulator with no trace recorder attached.
func probeSim(p *pipeline, seed int64, out *outcome) {
	events := 0
	t := time.Now()
	for _, w := range p.sys.Workloads() {
		for i := int64(0); i < probeSeeds; i++ {
			events += simRun(w, inject.Profile(), seed+i, nil)
		}
	}
	d := time.Since(t)
	out.set("sim.events", float64(events))
	out.set("sim.run_s", d.Seconds())
	out.set("sim.events_per_s", float64(events)/d.Seconds())
}

// probeTrace measures the instrumentation overhead the way the paper's
// §8.5 does: paired profile runs with the recorder on and off.
func probeTrace(p *pipeline, seed int64, out *outcome) {
	var instrumented, bare time.Duration
	for _, name := range p.driver.Workloads() {
		i, b := p.driver.OverheadSample(name, seed)
		instrumented += i
		bare += b
	}
	out.set("trace.instrumented_s", instrumented.Seconds())
	out.set("trace.bare_s", bare.Seconds())
	out.set("trace.overhead_pct", 100*(instrumented.Seconds()-bare.Seconds())/bare.Seconds())
}

// probeFCA rebuilds the profile and injected run sets of the first
// executed experiments through the public trace/inject/sim calls and
// times fca.Analyze over them alone.
func probeFCA(p *pipeline, out *outcome) {
	hcfg := p.cfg.Harness
	pool := trace.NewPool(p.space)
	byName := make(map[string]sysreg.Workload)
	for _, w := range p.sys.Workloads() {
		byName[w.Name] = w
	}
	runSet := func(w sysreg.Workload, plan inject.Plan) *trace.Set {
		set := &trace.Set{}
		for i := 0; i < hcfg.Reps; i++ {
			s := hcfg.BaseSeed + int64(i)
			rec := pool.Get(w.Name, s)
			simRun(w, plan, s, rec)
			set.Add(rec)
		}
		return set
	}
	profiles := make(map[string]*trace.Set)
	var analyze time.Duration
	calls, edges := 0, 0
	for _, run := range p.log.runs[:min(probeExperiments, len(p.log.runs))] {
		w := byName[run.Test]
		if profiles[run.Test] == nil {
			profiles[run.Test] = runSet(w, inject.Profile())
		}
		pt, _ := p.space.Lookup(run.Fault)
		mags := []time.Duration{0}
		if pt.Kind == faults.Loop {
			mags = hcfg.DelayMagnitudes
		}
		for _, mag := range mags {
			plan := inject.PlanFor(pt, mag)
			injected := runSet(w, plan)
			t := time.Now()
			found, _ := fca.Analyze(p.space, plan, run.Test, profiles[run.Test], injected, hcfg.FCA)
			analyze += time.Since(t)
			calls++
			edges += len(found)
		}
	}
	out.set("fca.analyze_s", analyze.Seconds())
	out.set("fca.analyze_calls", float64(calls))
	out.set("fca.edges", float64(edges))
}

// probeGraph replays the edge stream the traced pipeline observed, one
// batch and one mark per experiment, through the serial accumulation
// path and through the shard-and-merge path, and times a cold index
// build over the result.
func probeGraph(p *pipeline, out *outcome) {
	statics := fca.StaticLoopEdges(p.space)
	var add, merge, index []float64
	for i := 0; i < probeReplays; i++ {
		g := graph.New()
		g.AddStatic(statics)
		t := time.Now()
		for _, batch := range p.log.edges {
			g.AddAll(batch)
			g.Mark()
		}
		add = append(add, time.Since(t).Seconds())

		t = time.Now()
		g.Index()
		index = append(index, time.Since(t).Seconds())

		sharded := graph.New()
		sharded.AddStatic(statics)
		t = time.Now()
		for _, batch := range p.log.edges {
			var s graph.Shard
			s.AddAll(batch)
			s.Mark()
			sharded.MergeShard(&s)
		}
		merge = append(merge, time.Since(t).Seconds())
		out.check(g.Len() == p.graph.Len() && sharded.Len() == p.graph.Len(),
			"replayed graphs have %d and %d edges, the pipeline's %d", g.Len(), sharded.Len(), p.graph.Len())
	}
	out.endOp()
	out.set("graph.add_s", median(add))
	out.set("graph.shard_merge_s", median(merge))
	out.set("graph.index_s", median(index))
}
