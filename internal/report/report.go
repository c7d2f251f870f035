// Package report regenerates the paper's evaluation artefacts: Table 2
// (injection/monitor point and test counts), Table 3 (detected
// self-sustaining cascading failures with allocation phase, random-
// allocation and naive-strategy comparisons), Table 4 (cycle/cluster/TP
// counts, unlimited vs one-delay beam search), the §8.2.1 fuzzing
// comparison, the §8.5 instrumentation overhead measurement, and the
// anytime-campaign convergence table (cycles found vs budget spent).
package report

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"repro/internal/analyzer"
	"repro/internal/baselines"
	"repro/internal/core/alloc"
	"repro/internal/core/beam"
	"repro/internal/core/csnake"
	"repro/internal/faults"
	"repro/internal/harness"
	"repro/internal/systems/sysreg"
)

// Table2Row is one system's static-analysis inventory.
type Table2Row struct {
	System     string
	Loops      int
	Exceptions int
	Negations  int
	Branches   int
	Tests      int
}

// Table2 runs the static analyzer over each system.
func Table2(root string, systems []sysreg.System) ([]Table2Row, error) {
	var rows []Table2Row
	for _, sys := range systems {
		inv, err := analyzer.Analyze(root, sys.SourceDirs())
		if err != nil {
			return nil, err
		}
		c := inv.Count()
		rows = append(rows, Table2Row{
			System:     sys.Name(),
			Loops:      c.Loops,
			Exceptions: c.Exceptions,
			Negations:  c.Negations,
			Branches:   c.Branches,
			Tests:      len(sys.Workloads()),
		})
	}
	return rows, nil
}

// WriteTable2 renders Table 2.
func WriteTable2(w io.Writer, rows []Table2Row) {
	fmt.Fprintf(w, "%-10s %6s %10s %9s %7s %6s\n", "System", "Loop", "Exception", "Negation", "Branch", "Test")
	for _, r := range rows {
		fmt.Fprintf(w, "%-10s %6d %10d %9d %7d %6d\n", r.System, r.Loops, r.Exceptions, r.Negations, r.Branches, r.Tests)
	}
}

// Table3Row is one detected (or missed) ground-truth bug.
type Table3Row struct {
	System     string
	Bug        sysreg.Bug
	Detected   bool
	Cycle      string // composition, e.g. "1D | 2E | 0N"
	AllocPhase int    // 3PA phase after which all causal edges were known
	Random     bool   // detected under random allocation
	Alt        bool   // detected by the naive single-fault strategy
}

// CampaignArtifacts bundles everything Table 3/4 need from one system.
type CampaignArtifacts struct {
	System sysreg.System
	Report *csnake.Report
	Config csnake.Config
	// Err is the campaign's termination error (context cancellation).
	Err error
}

// RunCampaign executes the standard campaign for a system and keeps the
// artefacts needed by the tables. Options are forwarded to the Campaign
// builder, so callers compose execution settings (parallelism, observer,
// light reps) the same way everywhere.
func RunCampaign(sys sysreg.System, opts ...csnake.Option) *CampaignArtifacts {
	c := csnake.NewCampaign(sys, opts...)
	rep, err := c.Run()
	return &CampaignArtifacts{System: sys, Report: rep, Config: c.Config(), Err: err}
}

// Table3 classifies each ground-truth bug of the campaign's system.
func Table3(art *CampaignArtifacts, naive []baselines.NaiveFinding, randomDetected map[string]bool) []Table3Row {
	sys := art.System
	rep := art.Report
	naiveBugs := map[string]bool{}
	for _, id := range baselines.DetectedByNaive(naive, sys.Bugs()) {
		naiveBugs[id] = true
	}
	detected := map[string]bool{}
	for _, id := range csnake.DetectedBugs(rep, sys.Bugs()) {
		detected[id] = true
	}
	// The per-phase prefix searches depend only on the campaign, not on
	// the bug under classification: run them once and probe per bug.
	phases := phaseReports(art)
	var rows []Table3Row
	for _, bug := range sys.Bugs() {
		if bug.Duplicate {
			continue
		}
		row := Table3Row{
			System:   sys.Name(),
			Bug:      bug,
			Detected: detected[bug.ID],
			Random:   randomDetected[bug.ID],
			Alt:      naiveBugs[bug.ID],
		}
		if row.Detected {
			row.Cycle = detectedComposition(rep, bug)
			row.AllocPhase = allocPhase(phases, bug)
		}
		rows = append(rows, row)
	}
	return rows
}

// detectedComposition reports the composition of the best cycle matching
// the bug.
func detectedComposition(rep *csnake.Report, bug sysreg.Bug) string {
	for _, lc := range csnake.Label(rep, []sysreg.Bug{bug}) {
		if lc.Bug == bug.ID && len(lc.Cluster.Cycles) > 0 {
			d, e, n := lc.Cluster.Cycles[0].Composition()
			return fmt.Sprintf("%dD | %dE | %dN", d, e, n)
		}
	}
	return ""
}

// phaseReports builds the three cumulative per-phase sub-reports (the
// campaign as it looked after phases 1, 2, 3). Each phase is re-searched
// from a prefix snapshot of the report's own graph, which carries the
// per-experiment marks: the boundaries address the prefix directly, with
// no raw-edge copying, re-deduplication, or state-key recomputation --
// and phase attribution is a function of the report alone. Bug-independent,
// so Table 3 computes this once and probes it per bug. Returns nil when
// the campaign has no 3PA result.
func phaseReports(art *CampaignArtifacts) []*csnake.Report {
	if art.Report.Alloc == nil {
		return nil
	}
	runs := art.Report.Alloc.Runs
	opt := art.Config.Beam
	if opt.NestGroups == nil {
		opt.NestGroups = csnake.NestGroups(art.Report.Space)
	}
	subs := make([]*csnake.Report, 0, 3)
	for phase := 1; phase <= 3; phase++ {
		n := 0
		for i, r := range runs {
			if int(r.Phase) <= phase {
				n = i + 1
			}
		}
		g := art.Report.Graph.Prefix(n)
		sub := &csnake.Report{
			System: art.Report.System,
			Space:  art.Report.Space,
			Alloc:  art.Report.Alloc,
			Graph:  g,
			Edges:  g.Edges(),
			Cycles: beam.SearchGraph(g, art.Report.Alloc.SimScoreOf, opt),
		}
		sub.CycleClusters = beam.ClusterCycles(sub.Cycles, func(f faults.ID) (int, bool) {
			gi, ok := art.Report.Alloc.ClusterOf[f]
			return gi, ok
		})
		subs = append(subs, sub)
	}
	return subs
}

// allocPhase finds the first 3PA phase whose accumulated causal edges
// already reveal the bug (the Table 3 "Alloc." column).
func allocPhase(phases []*csnake.Report, bug sysreg.Bug) int {
	if len(phases) == 0 {
		return 0
	}
	for i, sub := range phases {
		for _, id := range csnake.DetectedBugs(sub, []sysreg.Bug{bug}) {
			if id == bug.ID {
				return i + 1
			}
		}
	}
	return len(phases)
}

// WriteTable3 renders Table 3.
func WriteTable3(w io.Writer, rows []Table3Row) {
	fmt.Fprintf(w, "%-8s %-10s %-34s %-14s %-6s %-5s %-5s %-9s\n",
		"System", "Bug", "Delayed task", "Cycle", "Alloc", "Rnd?", "Alt?", "Detected")
	for _, r := range rows {
		mark := func(b bool) string {
			if b {
				return "yes"
			}
			return "-"
		}
		phase := "-"
		if r.Detected && r.AllocPhase > 0 {
			phase = fmt.Sprintf("%d", r.AllocPhase)
		}
		fmt.Fprintf(w, "%-8s %-10s %-34s %-14s %-6s %-5s %-5s %-9s\n",
			r.System, r.Bug.ID, r.Bug.Title, r.Cycle, phase, mark(r.Random), mark(r.Alt), mark(r.Detected))
	}
}

// Table4Row is one system's cycle-clustering summary, with the
// parenthesised one-delay-injection variant.
type Table4Row struct {
	System                  string
	Cycles, Clusters, TP    int
	Cycles1, Clusters1, TP1 int // beam search limited to one delay injection
}

// Table4 computes both beam-search variants from a finished campaign.
func Table4(art *CampaignArtifacts) Table4Row {
	rep := art.Report
	sys := art.System
	tp, total := csnake.TruePositiveClusters(rep, sys.Bugs())
	row := Table4Row{
		System:   sys.Name(),
		Cycles:   len(rep.Cycles),
		Clusters: total,
		TP:       tp,
	}
	opt := art.Config.Beam
	opt.MaxDelayInjections = 1
	if opt.NestGroups == nil {
		opt.NestGroups = csnake.NestGroups(rep.Space)
	}
	scoreOf := func(f faults.ID) float64 {
		if rep.Alloc != nil {
			return rep.Alloc.SimScoreOf(f)
		}
		return 1
	}
	limited := &csnake.Report{System: rep.System, Space: rep.Space, Alloc: rep.Alloc, Graph: rep.Graph, Edges: rep.Edges}
	// Reuse the campaign's interned graph: the one-delay variant
	// re-searches the same index instead of re-keying the edge slice.
	limited.Cycles = beam.SearchGraph(rep.Graph, scoreOf, opt)
	limited.CycleClusters = beam.ClusterCycles(limited.Cycles, func(f faults.ID) (int, bool) {
		if rep.Alloc == nil {
			return 0, false
		}
		gi, ok := rep.Alloc.ClusterOf[f]
		return gi, ok
	})
	tp1, total1 := csnake.TruePositiveClusters(limited, sys.Bugs())
	row.Cycles1 = len(limited.Cycles)
	row.Clusters1 = total1
	row.TP1 = tp1
	return row
}

// WriteTable4 renders Table 4.
func WriteTable4(w io.Writer, rows []Table4Row) {
	fmt.Fprintf(w, "%-10s %-12s %-12s %-12s\n", "System", "Cycle", "Cluster", "TP")
	for _, r := range rows {
		fmt.Fprintf(w, "%-10s %-12s %-12s %-12s\n", r.System,
			fmt.Sprintf("%d (%d)", r.Cycles, r.Cycles1),
			fmt.Sprintf("%d (%d)", r.Clusters, r.Clusters1),
			fmt.Sprintf("%d (%d)", r.TP, r.TP1))
	}
}

// ConvergenceRow is one anytime-campaign round in the convergence table:
// how much of the detection surfaced after what fraction of the budget.
type ConvergenceRow struct {
	System string
	Round  int
	Phase  alloc.Phase
	// Spent / Budget is the cumulative experiment count; SpentFrac the
	// fraction of budget consumed after this round.
	Spent, Budget int
	SpentFrac     float64
	Cycles        int
	Clusters      int
	// Detected lists the ground-truth bugs identifiable from this round's
	// clustered cycle set, sorted.
	Detected []string
}

// Convergence renders an anytime campaign's round trajectory against the
// system's ground truth: the "cycles found vs budget spent" table. Nil
// for batch campaigns (no rounds recorded).
func Convergence(art *CampaignArtifacts) []ConvergenceRow {
	rep := art.Report
	var rows []ConvergenceRow
	for _, r := range rep.Rounds {
		row := ConvergenceRow{
			System:   rep.System,
			Round:    r.Round,
			Phase:    r.Phase,
			Spent:    r.Spent,
			Budget:   r.Budget,
			Cycles:   r.CycleCount,
			Clusters: len(r.Clusters),
		}
		if r.Budget > 0 {
			row.SpentFrac = float64(r.Spent) / float64(r.Budget)
		}
		seen := map[string]bool{}
		for _, lc := range csnake.LabelClusters(r.Clusters, art.System.Bugs()) {
			if lc.Bug != "" && !seen[lc.Bug] {
				seen[lc.Bug] = true
				row.Detected = append(row.Detected, lc.Bug)
			}
		}
		sort.Strings(row.Detected)
		rows = append(rows, row)
	}
	return rows
}

// WriteConvergence renders the convergence table.
func WriteConvergence(w io.Writer, rows []ConvergenceRow) {
	fmt.Fprintf(w, "%-10s %5s %5s %11s %7s %8s %8s  %s\n",
		"System", "Round", "Phase", "Spent", "Budget%", "Cycles", "Clusters", "Detected")
	for _, r := range rows {
		fmt.Fprintf(w, "%-10s %5d %5d %11s %6.0f%% %8d %8d  %s\n",
			r.System, r.Round, r.Phase,
			fmt.Sprintf("%d/%d", r.Spent, r.Budget), 100*r.SpentFrac,
			r.Cycles, r.Clusters, strings.Join(r.Detected, ","))
	}
}

// Overhead measures instrumentation overhead (§8.5) across a system's
// workloads: wall-clock of monitored profile runs vs monitoring-disabled
// runs.
type Overhead struct {
	System  string
	AvgPct  float64
	MinPct  float64
	MaxPct  float64
	Samples int
}

// MeasureOverhead runs each workload with monitoring on and off. The
// multi-sample averaging lives in harness.Driver.OverheadSample (the
// single source of truth for the §8.5 measurement).
func MeasureOverhead(sys sysreg.System) Overhead {
	driver := harness.New(sys, sysreg.Space(sys), harness.Config{Reps: 1})
	out := Overhead{System: sys.Name(), MinPct: -1}
	var sum float64
	for _, w := range sys.Workloads() {
		inst, bare := driver.OverheadSample(w.Name, 100)
		if bare == 0 {
			continue
		}
		pct := 100 * (float64(inst)/float64(bare) - 1)
		if pct < 0 {
			pct = 0
		}
		sum += pct
		out.Samples++
		if out.MinPct < 0 || pct < out.MinPct {
			out.MinPct = pct
		}
		if pct > out.MaxPct {
			out.MaxPct = pct
		}
	}
	if out.Samples > 0 {
		out.AvgPct = sum / float64(out.Samples)
	}
	return out
}

// WriteOverhead renders the §8.5 measurement.
func WriteOverhead(w io.Writer, rows []Overhead) {
	fmt.Fprintf(w, "%-10s %10s %10s %10s\n", "System", "Avg%", "Min%", "Max%")
	for _, r := range rows {
		fmt.Fprintf(w, "%-10s %9.0f%% %9.0f%% %9.0f%%\n", r.System, r.AvgPct, r.MinPct, r.MaxPct)
	}
}

// Summary renders a one-line campaign summary.
func Summary(art *CampaignArtifacts) string {
	rep := art.Report
	var b strings.Builder
	fmt.Fprintf(&b, "%s: |F|=%d budget=%d edges=%d cycles=%d clusters=%d sims=%d",
		rep.System, rep.Space.Size(), len(rep.Runs), len(rep.Edges), len(rep.Cycles), len(rep.CycleClusters), rep.Sims)
	bugs := csnake.DetectedBugs(rep, art.System.Bugs())
	sort.Strings(bugs)
	fmt.Fprintf(&b, " detected=%v", bugs)
	return b.String()
}
