// Package csnake is the public face of the reproduction: it wires the
// whole CSnake pipeline of Figure 3 -- fault space construction, workload
// driving under the 3PA budget protocol, fault causality analysis, and the
// compatibility-checked parallel beam search -- into a single Campaign.
//
// A minimal use resolves a registered system and runs a campaign:
//
//	sys, _ := sysreg.Lookup("hdfs2") // blank-import repro/internal/systems/dfs
//	report, err := csnake.NewCampaign(sys,
//		csnake.WithSeed(42),
//		csnake.WithParallelism(runtime.NumCPU()),
//	).Run()
//	for _, cc := range report.CycleClusters { fmt.Println(cc.Cycles[0]) }
//
// WithAnytime (and WithEarlyStop, which implies it) switches the same
// campaign to a round-based streaming pipeline: experiment waves, graph
// deltas, an incremental cycle search after every round, and per-round
// convergence data in Report.Rounds -- with a final report identical to
// the batch pipeline's when the budget runs to completion.
package csnake

import (
	"sort"

	"repro/internal/core/alloc"
	"repro/internal/core/beam"
	"repro/internal/core/fca"
	"repro/internal/core/graph"
	"repro/internal/faults"
	"repro/internal/harness"
	"repro/internal/systems/sysreg"
)

// Config assembles the knobs of a campaign.
type Config struct {
	// Seed drives every random choice in the campaign (3PA draws and run
	// seeds derive from it).
	Seed int64
	// Harness configures repetitions, delay magnitudes, and FCA.
	Harness harness.Config
	// BudgetFactor scales |F| into the 3PA budget (paper: 4).
	BudgetFactor int
	// ClusterThreshold is the causally-equivalent-fault merge cutoff.
	ClusterThreshold float64
	// Beam configures cycle search.
	Beam beam.Options
	// Protocol selects the allocation protocol; default Protocol3PA.
	Protocol ProtocolKind
	// Anytime switches the campaign to the round-based streaming
	// pipeline: the allocation schedule emits waves of experiments, each
	// wave's causal-graph delta feeds an incremental cycle search, and
	// the report carries per-round convergence data. A full anytime
	// campaign reaches exactly the batch campaign's final report.
	Anytime bool
	// EarlyStopRounds, when positive, stops an anytime campaign once the
	// clustered cycle set is non-empty and has been stable for this many
	// consecutive rounds, saving the remaining budget. Implies Anytime.
	EarlyStopRounds int
	// WaveSize is the number of experiments per anytime round (0 = |F|,
	// i.e. roughly BudgetFactor rounds after the profile runs).
	WaveSize int
}

// ProtocolKind selects the budget allocation strategy.
type ProtocolKind int

const (
	// Protocol3PA is CSnake's three-phase allocation.
	Protocol3PA ProtocolKind = iota
	// ProtocolRandom is the §8.2 random-allocation comparison baseline.
	ProtocolRandom
	// ProtocolAdaptive is 3PA with anytime feedback: at every phase-three
	// wave boundary the cluster draw weights are recomputed, boosting
	// clusters that contain faults sitting on near-cycles of the current
	// causal graph (valid propagation chains one piece of evidence short
	// of closing) -- the remaining budget chases loops that one more
	// experiment could close. Implies the round-based pipeline.
	ProtocolAdaptive
)

// AdaptiveBoost is the phase-three weight multiplier ProtocolAdaptive
// applies to clusters containing near-cycle faults.
const AdaptiveBoost = 4.0

// DefaultConfig returns paper-faithful parameters with the given seed.
// One deliberate deviation: the default budget factor is 8 rather than the
// paper's minimum of 4, because this reproduction's workload pools are two
// orders of magnitude smaller than the JUnit suites -- nearly every fault
// is reachable from most workloads, so per-fault test diversity costs
// proportionally more budget.
func DefaultConfig(seed int64) Config {
	return Config{
		Seed:         seed,
		Harness:      harness.DefaultConfig(),
		BudgetFactor: 8,
	}
}

// Report is the outcome of a campaign.
type Report struct {
	System string
	// Space is the filtered fault space (|F| faults).
	Space *faults.Space
	// Alloc is the 3PA result (nil for the random protocol).
	Alloc *alloc.Result
	// Runs is the executed schedule (either protocol).
	Runs []alloc.RunRecord
	// Graph is the interned causal graph: deduplicated by construction,
	// annotated with per-fault SimScores and loop-nest families, and
	// serializable for cross-campaign stitching (JSON round trip).
	Graph *graph.Graph
	// Edges is the deduplicated causal edge set (materialized from Graph).
	Edges []fca.Edge
	// Cycles are the raw reported self-sustaining cascading failures.
	Cycles []beam.Cycle
	// CycleClusters groups equivalent cycles (§6.3).
	CycleClusters []beam.CycleCluster
	// Sims is the number of simulated executions performed.
	Sims int
	// Rounds carries the per-round convergence trajectory of an anytime
	// campaign (nil for batch campaigns).
	Rounds []Round
	// EarlyStopped reports that WithEarlyStop ended the campaign before
	// the budget was spent.
	EarlyStopped bool
}

// Round summarizes one round of an anytime campaign: the wave it
// executed, the causal-graph delta the wave contributed, and the cycle
// set known afterwards.
type Round struct {
	// Round is the 1-based round number.
	Round int
	// Phase is the allocation phase of the wave's last run (0 under the
	// random protocol).
	Phase alloc.Phase
	// Runs is the number of experiments this round executed; Spent the
	// cumulative count, out of Budget.
	Runs, Spent, Budget int
	// NewEdges counts new causal-edge identities the round discovered;
	// TouchedEdges additionally counts evidence-extended ones, connecting
	// TouchedFaults distinct faults.
	NewEdges, TouchedEdges, TouchedFaults int
	// CycleCount is the number of raw cycles known after this round.
	CycleCount int
	// Clusters is the clustered cycle set as of this round, compacted for
	// retention: each cluster keeps its best-ranked cycle per distinct
	// injected-fault set (all bug labeling needs), not every raw member --
	// cycle-dense targets reach six-figure raw counts in late rounds.
	// CycleCount carries the uncompacted total.
	Clusters []beam.CycleCluster
}

// NestGroups assigns every loop in a nest (parent and children) to one
// family, merging nests that share loops. The beam search uses the
// families to drop structural parent-child "cycles".
func NestGroups(space *faults.Space) map[faults.ID]int {
	groups := make(map[faults.ID]int)
	next := 0
	for _, nest := range space.Nests {
		members := append([]faults.ID{nest.Parent}, nest.Children...)
		id := -1
		for _, f := range members {
			if g, ok := groups[f]; ok {
				id = g
				break
			}
		}
		if id == -1 {
			id = next
			next++
		}
		for _, f := range members {
			groups[f] = id
		}
	}
	return groups
}

// LabeledCluster classifies one reported cycle cluster against the
// system's ground-truth bugs.
type LabeledCluster struct {
	Cluster beam.CycleCluster
	// Bug is the matched ground-truth bug id ("" when unmatched: a false
	// positive, typically expected contention per §8.4.2).
	Bug string
}

// Label matches reported cycle clusters against ground truth: a cluster is
// attributed to a bug when one of its cycles covers all the bug's core
// faults.
func Label(rep *Report, bugs []sysreg.Bug) []LabeledCluster {
	return LabelClusters(rep.CycleClusters, bugs)
}

// LabelClusters is Label over a bare cluster list: anytime callers use it
// to classify each round's intermediate cycle set (Round.Clusters).
func LabelClusters(clusters []beam.CycleCluster, bugs []sysreg.Bug) []LabeledCluster {
	out := make([]LabeledCluster, 0, len(clusters))
	for _, cc := range clusters {
		label := ""
		for _, bug := range bugs {
			if clusterMatches(cc, bug) {
				label = bug.ID
				break
			}
		}
		out = append(out, LabeledCluster{Cluster: cc, Bug: label})
	}
	return out
}

func clusterMatches(cc beam.CycleCluster, bug sysreg.Bug) bool {
	for _, cy := range cc.Cycles {
		have := make(map[faults.ID]bool)
		for _, f := range cy.Faults() {
			have[f] = true
		}
		all := true
		for _, f := range bug.CoreFaults {
			if !have[f] {
				all = false
				break
			}
		}
		if all {
			return true
		}
	}
	return false
}

// DetectedBugs returns the distinct ground-truth bug ids found in a
// report, sorted.
func DetectedBugs(rep *Report, bugs []sysreg.Bug) []string {
	seen := make(map[string]bool)
	for _, lc := range Label(rep, bugs) {
		if lc.Bug != "" {
			seen[lc.Bug] = true
		}
	}
	out := make([]string, 0, len(seen))
	for id := range seen {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// TruePositiveClusters counts labelled clusters (TP) and total clusters.
func TruePositiveClusters(rep *Report, bugs []sysreg.Bug) (tp, total int) {
	labeled := Label(rep, bugs)
	for _, lc := range labeled {
		if lc.Bug != "" {
			tp++
		}
	}
	return tp, len(labeled)
}
