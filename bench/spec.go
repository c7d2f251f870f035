package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"time"

	"repro/internal/core/csnake"
)

// benchmarkFile is the contract file at the root of the checkout. The
// run length lives only there: no flag default and no constant in this
// package duplicates it.
const benchmarkFile = "BENCHMARK.json"

// workload is one row of the benchmark: a fixed input size driven closed
// loop by a single client. Sizes never change with a flag; only the
// number of repetitions follows the run length.
type workload struct {
	name string
	why  string
	// system is the registry alias of the target the campaign runs
	// against (for stream: the campaign whose trace export is replayed).
	system string
	// light selects the `csnake -fast` configuration (3 reps, magnitudes
	// 500ms/2s/8s); otherwise the paper configuration (5 reps x 7).
	light bool
	// parallel runs the campaign at min(nproc, 4) workers; otherwise 1.
	parallel bool
	// anytime adds WithAnytime and a RoundObserver.
	anytime bool
	// stream replays the campaign's trace export through a monitor
	// instead of timing the campaign.
	stream bool
}

var workloads = []workload{
	{
		name:   "campaign-sim-heavy",
		why:    "HBase, paper config (5 reps x 7 delay magnitudes), batch, parallelism 1: harness.Execute (sim, trace hooks, FCA, prefix forks) dominates and search barely shows; keeps the serial Execute path blocking",
		system: "hbase",
	},
	{
		name:     "campaign-search-heavy",
		why:      "MetaStore, light config, batch, parallel: ~150k cycles into ~37 clusters, so beam.SearchGraph and allocation dominate; the sharded ExecuteWave/MergeShard path is on it",
		system:   "metastore",
		light:    true,
		parallel: true,
	},
	{
		name:     "anytime-search-heavy",
		why:      "campaign-search-heavy plus WithAnytime: beam.Incremental.SearchDelta per round, pipelined against the next wave, so a change that helps one-shot but hurts incremental search splits the two rows",
		system:   "metastore",
		light:    true,
		parallel: true,
		anytime:  true,
	},
	{
		name:     "monitor-stream",
		why:      "no simulation in the timed part: an HBase light campaign's JSONL trace, 2 records per Ingest, 60ms/8-bucket window, so decode, Window observe/evict-rebuild and incremental search do all the work",
		system:   "hbase",
		light:    true,
		parallel: true,
		stream:   true,
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// parallelism is the worker count of the parallel rows.
func parallelism() int { return min(runtime.NumCPU(), 4) }

// parallelism is the worker count the workload's campaign runs at.
func (w workload) parallelism() int {
	if w.parallel {
		return parallelism()
	}
	return 1
}

// options builds the campaign options of a workload; the traced pipeline
// resolves its Config from the same list.
func (w workload) options(seed int64) []csnake.Option {
	opts := []csnake.Option{csnake.WithSeed(seed), csnake.WithParallelism(w.parallelism())}
	if w.light {
		opts = append(opts, csnake.WithReps(3),
			csnake.WithDelayMagnitudes(500*time.Millisecond, 2*time.Second, 8*time.Second))
	}
	if w.anytime {
		opts = append(opts, csnake.WithAnytime())
	}
	return opts
}

// Monitor-stream shape: window shorter than the stream, so the first
// edges accumulate and the rest evict.
//
// The stream is always the trace of the campaign at streamSeed, whatever
// -seed says. The monitor's cost is chaotic in its input: a few
// intermediate window states dominate the search, so across campaign
// seeds 1-7 a pass over the same 205 records in the same 103 batches took
// 0.3 s to 6.7 s, and merely moving the batch boundaries of one stream
// moved it from 0.75 s to 2.9 s. A row of the benchmark needs one
// operating point.
const (
	streamSeed    = 42
	streamWindow  = 60 * time.Millisecond
	streamBuckets = 8
	streamBatch   = 2 // records per Ingest
)

// metric is one named number the benchmark prints. bound is the share of
// the parent's median by which an end-to-end metric may worsen; per-layer
// metrics carry none.
type metric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

const (
	lower  = "lower"
	higher = "higher"
)

// endToEnd lists what a user of the system sees. Every workload reports
// every metric; README.md says what each one means per workload.
var endToEnd = []metric{
	{"setup_s", "s", lower, 0.25},
	{"campaign_wall_s", "s", lower, 0.25},
	{"sims_per_s", "1/s", higher, 0.25},
	{"cpu_s", "s", lower, 0.25},
	{"alloc_mb", "MB", lower, 0.20},
	{"peak_rss_mb", "MB", lower, 0.25},
	{"ttfd_s", "s", lower, 0.25},
	{"ingest_records_per_s", "1/s", higher, 0.25},
	{"alert_latency_ms_p50", "ms", lower, 0.25},
	{"alert_latency_ms_p90", "ms", lower, 0.25},
}

// perLayer lists the single-layer numbers of the traced run, layer name
// first. A layer that is not on a workload's path reports 0 there.
var perLayer = []metric{
	{Name: "sim.events", Unit: "count", Better: lower},
	{Name: "sim.run_s", Unit: "s", Better: lower},
	{Name: "sim.events_per_s", Unit: "1/s", Better: higher},

	{Name: "trace.instrumented_s", Unit: "s", Better: lower},
	{Name: "trace.bare_s", Unit: "s", Better: lower},
	{Name: "trace.overhead_pct", Unit: "%", Better: lower},

	{Name: "harness.profile_s", Unit: "s", Better: lower},
	{Name: "harness.profile_sims", Unit: "count", Better: lower},
	{Name: "harness.execute_s", Unit: "s", Better: lower},
	{Name: "harness.experiments", Unit: "count", Better: lower},
	{Name: "harness.sims", Unit: "count", Better: lower},
	{Name: "harness.execute_sims_per_s", Unit: "1/s", Better: higher},
	{Name: "harness.prefix_hits", Unit: "count", Better: higher},
	{Name: "harness.prefix_clones", Unit: "count", Better: higher},
	{Name: "harness.prefix_misses", Unit: "count", Better: lower},
	{Name: "harness.prefix_avoided_ratio", Unit: "ratio", Better: higher},
	{Name: "harness.parallel_speedup", Unit: "ratio", Better: higher},

	{Name: "fca.analyze_s", Unit: "s", Better: lower},
	{Name: "fca.analyze_calls", Unit: "count", Better: lower},
	{Name: "fca.edges", Unit: "count", Better: higher},

	{Name: "alloc.schedule_self_s", Unit: "s", Better: lower},
	{Name: "alloc.waves", Unit: "count", Better: lower},

	{Name: "graph.capture_s", Unit: "s", Better: lower},
	{Name: "graph.add_s", Unit: "s", Better: lower},
	{Name: "graph.shard_merge_s", Unit: "s", Better: lower},
	{Name: "graph.index_s", Unit: "s", Better: lower},
	{Name: "graph.raw_edges", Unit: "count", Better: lower},
	{Name: "graph.edges", Unit: "count", Better: lower},

	{Name: "beam.search_s", Unit: "s", Better: lower},
	{Name: "beam.cycles", Unit: "count", Better: lower},
	{Name: "beam.cycles_per_s", Unit: "1/s", Better: higher},
	{Name: "beam.search_alloc_mb", Unit: "MB", Better: lower},
	{Name: "beam.cluster_s", Unit: "s", Better: lower},
	{Name: "beam.clusters", Unit: "count", Better: higher},
	{Name: "beam.cycles_per_cluster", Unit: "ratio", Better: lower},
	{Name: "beam.incremental_s", Unit: "s", Better: lower},
	{Name: "beam.incremental_rounds", Unit: "count", Better: lower},
	{Name: "beam.incremental_max_round_s", Unit: "s", Better: lower},
	{Name: "beam.final_rerank_s", Unit: "s", Better: lower},

	{Name: "csnake.self_s", Unit: "s", Better: lower},
	{Name: "csnake.trace_residual_pct", Unit: "%", Better: lower},
	{Name: "csnake.trace_overhead_pct", Unit: "%", Better: lower},

	{Name: "monitor.ingest_s", Unit: "s", Better: lower},
	{Name: "monitor.batches", Unit: "count", Better: lower},
	{Name: "monitor.records", Unit: "count", Better: higher},
	{Name: "monitor.alerts", Unit: "count", Better: lower},
	{Name: "monitor.skipped", Unit: "count", Better: lower},
	{Name: "monitor.search_s", Unit: "s", Better: lower},
	{Name: "monitor.parse_self_s", Unit: "s", Better: lower},

	{Name: "window.observe_s", Unit: "s", Better: lower},
	{Name: "window.rebuilds", Unit: "count", Better: lower},
	{Name: "window.rebuild_s", Unit: "s", Better: lower},
	{Name: "window.evicted", Unit: "count", Better: lower},
	{Name: "window.retained", Unit: "count", Better: lower},
}

// runSeconds reads the run length from BENCHMARK.json in the working
// directory (the root of the checkout).
func runSeconds() (int, error) {
	data, err := os.ReadFile(benchmarkFile)
	if err != nil {
		return 0, fmt.Errorf("run from the root of the checkout: %w", err)
	}
	var spec struct {
		RunSeconds int `json:"run_seconds"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		return 0, fmt.Errorf("%s: %w", benchmarkFile, err)
	}
	if spec.RunSeconds < 1 {
		return 0, fmt.Errorf("%s: run_seconds %d", benchmarkFile, spec.RunSeconds)
	}
	return spec.RunSeconds, nil
}
