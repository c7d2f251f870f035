// Command csnake runs a full CSnake campaign -- profile runs, 3PA-driven
// fault injection, fault causality analysis, and the beam search for
// self-sustaining cascading failures -- against one target system and
// prints the detected cycles.
//
// Target systems are resolved through the sysreg registry (each system
// package self-registers in init()); -system accepts a canonical name or
// alias, and -list prints everything registered.
//
// The causal graph a campaign accumulates is a first-class artifact:
// -edges-out persists it (fault ids, edges with occurrence evidence,
// SimScores, and loop-nest families) as JSON, and -edges-in loads one or
// more persisted graphs, stitches them into a single graph, and re-runs
// the beam search offline -- no simulations, identical cycles. Combining
// the two merges graphs from several campaigns into one file.
//
// -anytime switches to the round-based streaming pipeline: the 3PA
// schedule emits waves of experiments, an incremental beam search folds
// each wave's causal-graph delta, and every round's cycle count streams
// to stderr. -early-stop N ends the campaign once the clustered cycle
// set is stable for N rounds; -wave sets the round granularity; -adaptive
// reweights phase-3 draws toward near-cycle faults.
//
// -trace-out streams the campaign's causal-edge discoveries as monitor
// JSONL records (the online-monitoring wire format); -monitor replays
// such a trace through the online cascade monitor without running any
// simulations, printing closed/broken cycle alerts as the evidence
// arrives. -monitor-batch sets the replay batch size, -monitor-window /
// -monitor-buckets bound evidence retention (0 window = keep all, the
// offline-equivalent configuration).
//
// Usage: csnake [-system NAME] [-seed N] [-reps N] [-budget N] [-parallel N]
//
//	[-fast] [-progress] [-list] [-edges-out FILE] [-edges-in FILE,...]
//	[-anytime] [-early-stop N] [-wave N] [-adaptive]
//	[-trace-out FILE] [-monitor FILE [-monitor-batch N]
//	[-monitor-window DUR] [-monitor-buckets N]]
//	[-cpuprofile FILE] [-memprofile FILE]
package main

import (
	"bufio"
	"bytes"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"repro/internal/core/beam"
	"repro/internal/core/csnake"
	"repro/internal/core/graph"
	"repro/internal/faults"
	"repro/internal/monitor"
	"repro/internal/report"
	"repro/internal/systems/sysreg"

	_ "repro/internal/systems/dfs"
	_ "repro/internal/systems/kvstore"
	_ "repro/internal/systems/metastore"
	_ "repro/internal/systems/objstore"
	_ "repro/internal/systems/stream"
)

// progress streams campaign events to stderr. With quiet set (anytime
// mode without -progress) only campaign- and round-level lines print;
// the per-experiment firehose stays off.
type progress struct {
	csnake.NopObserver
	quiet       bool
	experiments int
}

func (p *progress) CampaignStarted(system string, size, budget int) {
	fmt.Fprintf(os.Stderr, "campaign %s: |F|=%d budget=%d\n", system, size, budget)
}

func (p *progress) ProfileCached(test string, sims int) {
	if p.quiet {
		return
	}
	fmt.Fprintf(os.Stderr, "  profiled %s (%d runs)\n", test, sims)
}

func (p *progress) ExperimentExecuted(f faults.ID, test string, edges, intf int) {
	p.experiments++
	if p.quiet {
		return
	}
	fmt.Fprintf(os.Stderr, "  [%4d] inject %s into %s: %d edges, %d interfered\n",
		p.experiments, f, test, edges, intf)
}

func (p *progress) CycleFound(c beam.Cycle) {
	if p.quiet {
		return
	}
	fmt.Fprintf(os.Stderr, "  cycle: %s\n", c)
}

func (p *progress) RoundCompleted(r csnake.Round) {
	fmt.Fprintf(os.Stderr, "round %d (phase %d): %d runs (%d/%d budget), +%d edges, %d cycles in %d clusters\n",
		r.Round, r.Phase, r.Runs, r.Spent, r.Budget, r.NewEdges, r.CycleCount, len(r.Clusters))
}

func main() {
	name := flag.String("system", "hdfs2", "target system (see -list)")
	seed := flag.Int64("seed", 42, "campaign seed")
	reps := flag.Int("reps", 0, "seeds per run configuration (0 = paper default 5)")
	budget := flag.Int("budget", 0, "budget factor x|F| (0 = default)")
	parallel := flag.Int("parallel", runtime.NumCPU(), "worker-pool width for simulation runs (results are identical for any value)")
	fast := flag.Bool("fast", false, "light configuration (3 reps, 3 delay magnitudes)")
	verbose := flag.Bool("progress", false, "stream campaign progress to stderr")
	anytime := flag.Bool("anytime", false, "round-based streaming pipeline with live round progress")
	earlyStop := flag.Int("early-stop", 0, "stop once the clustered cycle set is stable for N rounds (implies -anytime)")
	wave := flag.Int("wave", 0, "experiments per anytime round (0 = |F|; implies -anytime)")
	adaptive := flag.Bool("adaptive", false, "adaptive protocol: phase-3 budget chases near-cycles (implies -anytime)")
	list := flag.Bool("list", false, "list registered systems and exit")
	edgesOut := flag.String("edges-out", "", "write the campaign's causal graph (or the -edges-in merge) as JSON")
	edgesIn := flag.String("edges-in", "", "comma-separated persisted graphs: skip the campaign, stitch them, and re-search")
	jsonOut := flag.Bool("json", false, "print the machine-readable campaign report (the csnaked report schema) to stdout")
	traceOut := flag.String("trace-out", "", "stream the campaign's trace as monitor JSONL records to FILE")
	monitorIn := flag.String("monitor", "", "replay a JSONL trace through the online cascade monitor (no simulations)")
	monitorBatch := flag.Int("monitor-batch", 256, "records per monitor replay batch (alerts fire at batch granularity)")
	monitorWindow := flag.Duration("monitor-window", 0, "monitor evidence retention span (0 = keep everything)")
	monitorBuckets := flag.Int("monitor-buckets", 0, "monitor decay buckets (0 = default 8)")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile to FILE for the whole invocation")
	memProfile := flag.String("memprofile", "", "write a heap profile to FILE on exit")
	flag.Parse()

	// Profiles bracket everything the command does (campaign, offline
	// re-search, or monitor replay) so hot paths in any mode show up.
	// stopProfiles must run before every exit; log.Fatal paths skip it,
	// which only loses the profile of an already-failed invocation.
	stopProfiles := startProfiles(*cpuProfile, *memProfile)
	defer stopProfiles()

	if *list {
		for _, n := range sysreg.Names() {
			if al := sysreg.AliasesOf(n); len(al) > 0 {
				fmt.Printf("%-12s (aliases: %s)\n", n, strings.Join(al, ", "))
			} else {
				fmt.Println(n)
			}
		}
		return
	}

	if *monitorIn != "" {
		replayMonitor(*monitorIn, *monitorBatch, *monitorWindow, *monitorBuckets)
		return
	}

	if *edgesIn != "" {
		researchGraphs(strings.Split(*edgesIn, ","), *edgesOut)
		return
	}

	sys, err := sysreg.Resolve(*name)
	if err != nil {
		log.Fatal(err)
	}

	// -fast composes through options: it narrows reps and the magnitude
	// sweep without clobbering BaseSeed or the FCA configuration.
	opts := []csnake.Option{
		csnake.WithSeed(*seed),
		csnake.WithParallelism(*parallel),
	}
	if *fast {
		opts = append(opts,
			csnake.WithReps(3),
			csnake.WithDelayMagnitudes(500*time.Millisecond, 2*time.Second, 8*time.Second))
	}
	opts = append(opts, csnake.WithReps(*reps), csnake.WithBudgetFactor(*budget))
	streaming := *anytime || *earlyStop > 0 || *adaptive || *wave > 0
	if streaming {
		opts = append(opts, csnake.WithAnytime(),
			csnake.WithEarlyStop(*earlyStop), csnake.WithWaveSize(*wave))
		if *adaptive {
			opts = append(opts, csnake.WithProtocol(csnake.ProtocolAdaptive))
		}
	}
	if *verbose || streaming {
		// Anytime mode always narrates rounds: live progress is its point.
		opts = append(opts, csnake.WithObserver(&progress{quiet: !*verbose}))
	}
	var traceFile *os.File
	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			log.Fatalf("trace-out: %v", err)
		}
		traceFile = f
		opts = append(opts, csnake.WithTraceExport(f))
	}

	start := time.Now()
	rep, err := csnake.NewCampaign(sys, opts...).Run()
	if err != nil {
		log.Fatalf("campaign: %v", err)
	}
	if traceFile != nil {
		if err := traceFile.Close(); err != nil {
			log.Fatalf("trace-out: %v", err)
		}
		fmt.Fprintf(os.Stderr, "wrote monitor trace to %s\n", *traceOut)
	}
	if rep.EarlyStopped {
		last := rep.Rounds[len(rep.Rounds)-1]
		fmt.Fprintf(os.Stderr, "early stop after round %d: cycle clusters stable, %d of %d budget unspent\n",
			last.Round, last.Budget-last.Spent, last.Budget)
	}
	if *edgesOut != "" {
		if err := rep.Graph.WriteFile(*edgesOut); err != nil {
			log.Fatalf("edges-out: %v", err)
		}
		fmt.Fprintf(os.Stderr, "wrote causal graph (%d edges, %d faults) to %s\n",
			rep.Graph.Len(), rep.Graph.NumFaults(), *edgesOut)
	}
	if *jsonOut {
		// Same document GET /v1/campaigns/{id}/report serves: one schema
		// for scripted consumers, whether the campaign ran here or in
		// csnaked. The human-readable summary moves to stderr.
		if err := report.WriteJSON(os.Stdout, rep, sys.Bugs()); err != nil {
			log.Fatalf("json: %v", err)
		}
		fmt.Fprintf(os.Stderr, "system=%s |F|=%d experiments=%d sims=%d edges=%d cycles=%d clusters=%d wall=%v\n",
			rep.System, rep.Space.Size(), len(rep.Runs), rep.Sims, len(rep.Edges), len(rep.Cycles), len(rep.CycleClusters), time.Since(start).Round(time.Millisecond))
		return
	}
	fmt.Printf("system=%s |F|=%d experiments=%d sims=%d edges=%d cycles=%d clusters=%d parallel=%d wall=%v\n",
		rep.System, rep.Space.Size(), len(rep.Runs), rep.Sims, len(rep.Edges), len(rep.Cycles), len(rep.CycleClusters), *parallel, time.Since(start).Round(time.Millisecond))

	labeled := csnake.Label(rep, sys.Bugs())
	for _, lc := range labeled {
		tag := "FP (expected contention or unconfirmed)"
		if lc.Bug != "" {
			tag = "TP " + lc.Bug
		}
		best := lc.Cluster.Cycles[0]
		fmt.Printf("  [%s] score=%.2f %s\n", tag, best.Score, best)
	}
	fmt.Printf("detected ground-truth bugs: %v\n", csnake.DetectedBugs(rep, sys.Bugs()))
}

// startProfiles starts a CPU profile and/or arranges a heap profile,
// returning the function that finalises both. Either path may be empty.
func startProfiles(cpuPath, memPath string) func() {
	var cpuFile *os.File
	if cpuPath != "" {
		f, err := os.Create(cpuPath)
		if err != nil {
			log.Fatalf("cpuprofile: %v", err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			log.Fatalf("cpuprofile: %v", err)
		}
		cpuFile = f
	}
	return func() {
		if cpuFile != nil {
			pprof.StopCPUProfile()
			if err := cpuFile.Close(); err != nil {
				log.Fatalf("cpuprofile: %v", err)
			}
		}
		if memPath == "" {
			return
		}
		f, err := os.Create(memPath)
		if err != nil {
			log.Fatalf("memprofile: %v", err)
		}
		runtime.GC() // settle live-heap numbers before the snapshot
		if err := pprof.WriteHeapProfile(f); err != nil {
			log.Fatalf("memprofile: %v", err)
		}
		if err := f.Close(); err != nil {
			log.Fatalf("memprofile: %v", err)
		}
	}
}

// researchGraphs loads persisted causal graphs, stitches them into one,
// optionally persists the merge, and re-runs the beam search using the
// SimScores and loop-nest families that rode along in the files.
func researchGraphs(paths []string, out string) {
	merged := graph.New()
	for _, p := range paths {
		p = strings.TrimSpace(p)
		if p == "" {
			continue
		}
		g, err := graph.ReadFile(p)
		if err != nil {
			log.Fatalf("edges-in: %v", err)
		}
		fmt.Fprintf(os.Stderr, "loaded %s: system=%s edges=%d faults=%d\n",
			p, g.System(), g.Len(), g.NumFaults())
		merged.Merge(g)
	}
	if out != "" {
		if err := merged.WriteFile(out); err != nil {
			log.Fatalf("edges-out: %v", err)
		}
		fmt.Fprintf(os.Stderr, "wrote merged graph (%d edges, %d faults) to %s\n",
			merged.Len(), merged.NumFaults(), out)
	}
	start := time.Now()
	cycles := beam.SearchGraph(merged, nil, beam.Options{})
	// Group equivalent cycles by the fault sets involved (no cluster
	// assignment is persisted, so faults distinguish themselves) and show
	// each group's best representative, like the campaign path does.
	clusters := beam.ClusterCycles(cycles, func(faults.ID) (int, bool) { return 0, false })
	fmt.Printf("system=%s edges=%d faults=%d keys=%d cycles=%d clusters=%d wall=%v\n",
		merged.System(), merged.Len(), merged.NumFaults(), merged.NumKeys(),
		len(cycles), len(clusters), time.Since(start).Round(time.Millisecond))
	const maxShown = 25
	for i, cc := range clusters {
		if i == maxShown {
			fmt.Printf("  ... and %d more clusters\n", len(clusters)-maxShown)
			break
		}
		best := cc.Cycles[0]
		fmt.Printf("  [%d cycles] score=%.2f %s\n", len(cc.Cycles), best.Score, best)
	}
}

// replayMonitor streams a recorded JSONL trace through the online
// cascade monitor in fixed-size batches, printing every closed/broken
// cycle alert as the evidence arrives, then the final monitor state.
func replayMonitor(path string, batch int, window time.Duration, buckets int) {
	f, err := os.Open(path)
	if err != nil {
		log.Fatalf("monitor: %v", err)
	}
	defer f.Close()
	if batch < 1 {
		batch = 1
	}
	mon := monitor.New(monitor.Config{
		Window:  window,
		Buckets: buckets,
		OnAlert: func(a monitor.Alert) {
			fmt.Printf("alert #%d %s: score=%.2f len=%d faults=%s\n    %s\n",
				a.Seq, a.Kind, a.Score, a.Len, strings.Join(a.Faults, ","), a.Cycle)
		},
	})
	br := bufio.NewReaderSize(f, 1<<20)
	var buf bytes.Buffer
	lines := 0
	ingest := func() {
		if buf.Len() == 0 {
			return
		}
		if _, err := mon.Ingest(&buf); err != nil {
			log.Fatalf("monitor: %v", err)
		}
		buf.Reset()
		lines = 0
	}
	for {
		line, err := br.ReadBytes('\n')
		buf.Write(line)
		if len(line) > 0 {
			lines++
		}
		if lines >= batch {
			ingest()
		}
		if err == io.EOF {
			break
		}
		if err != nil {
			log.Fatalf("monitor: read %s: %v", path, err)
		}
	}
	ingest()
	s := mon.Stats()
	fmt.Printf("monitor %s: records=%d skipped=%d edges=%d stale=%d batches=%d alerts=%d cycles=%d rebuilds=%d evicted=%d retained=%d\n",
		s.System, s.Records, s.Skipped, s.Edges, s.Stale, s.Batches, s.Alerts,
		s.CyclesActive, s.Rebuilds, s.Evicted, s.Retained)
	for _, c := range mon.Cycles() {
		fmt.Printf("  active: score=%.2f %s\n", c.Score, c)
	}
}
