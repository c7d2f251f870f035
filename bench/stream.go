package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"sort"
	"time"

	"repro/internal/core/beam"
	"repro/internal/core/compat"
	"repro/internal/core/csnake"
	"repro/internal/core/fca"
	"repro/internal/core/graph"
	"repro/internal/faults"
	"repro/internal/monitor"
	"repro/internal/sim"
	"repro/internal/systems/sysreg"
	"repro/internal/trace"
)

// streamInput is the monitor-stream workload's generated input: the
// trace export of one campaign, cut into Ingest batches.
type streamInput struct {
	batches [][]byte
	hasEdge []bool // batch holds at least one edge record
	records int
	sigs    []string // the campaign's cycle-signature set, sorted
	bugs    []sysreg.Bug
	setup   time.Duration // wall of the whole set-up
	wall    time.Duration // wall of the exporting campaign alone
	sims    int
}

// buildStream runs the exporting campaign (at streamSeed) and batches its
// trace.
func buildStream(w workload) (*streamInput, error) {
	t0 := time.Now()
	var buf bytes.Buffer
	r, rep, err := runCampaign(w, streamSeed, &campaignObserver{}, csnake.WithTraceExport(&buf))
	if err != nil {
		return nil, err
	}
	sys, _ := sysreg.Lookup(w.system)
	in := &streamInput{bugs: sys.Bugs(), wall: r.wall, sims: r.sims}
	lines := bytes.SplitAfter(buf.Bytes(), []byte("\n"))
	for len(lines) > 0 && len(lines[len(lines)-1]) == 0 {
		lines = lines[:len(lines)-1]
	}
	in.records = len(lines)
	for i := 0; i < len(lines); i += streamBatch {
		chunk := lines[i:min(i+streamBatch, len(lines))]
		in.batches = append(in.batches, bytes.Join(chunk, nil))
		edge := false
		for _, l := range chunk {
			var rec monitor.Record
			if err := json.Unmarshal(l, &rec); err != nil {
				return nil, fmt.Errorf("trace export: %w", err)
			}
			edge = edge || rec.T == "edge"
		}
		in.hasEdge = append(in.hasEdge, edge)
	}
	seen := make(map[string]bool)
	for _, cy := range rep.Cycles {
		if sig := cy.Signature(); !seen[sig] {
			seen[sig] = true
			in.sigs = append(in.sigs, sig)
		}
	}
	sort.Strings(in.sigs)
	in.setup = time.Since(t0)
	return in, nil
}

// all returns the whole stream as one batch.
func (in *streamInput) all() []byte { return bytes.Join(in.batches, nil) }

// covers reports whether an alert's faults include every core fault of a
// seeded bug.
func covers(alertFaults []string, bugs []sysreg.Bug) bool {
	have := make(map[string]bool, len(alertFaults))
	for _, f := range alertFaults {
		have[f] = true
	}
	for _, b := range bugs {
		all := true
		for _, f := range b.CoreFaults {
			all = all && have[string(f)]
		}
		if all {
			return true
		}
	}
	return false
}

// streamPass is one closed-loop replay: a fresh monitor, the next batch
// sent only after the previous Ingest returned.
type streamPass struct {
	meter
	latencies []time.Duration // per batch holding an edge record
	ttfd      time.Duration
	alertSHA  string
	stats     monitor.Stats
	active    []int // cycles active after each batch
}

// replay feeds the stream through a fresh monitor. tr, when set, records
// a span per Ingest.
func replay(in *streamInput, tr *tracer) (*streamPass, error) {
	mon := monitor.New(monitor.Config{Window: streamWindow, Buckets: streamBuckets})
	p := &streamPass{}
	var alerts []monitor.Alert
	var ingestErr error
	m := startMeter()
	for i, b := range in.batches {
		var res monitor.BatchResult
		ingest := func() { res, ingestErr = mon.Ingest(bytes.NewReader(b)) }
		t := time.Now()
		if tr != nil {
			id := tr.do("monitor.ingest", ingest)
			tr.spans[id].Count = int(res.Records)
		} else {
			ingest()
		}
		d := time.Since(t)
		if ingestErr != nil {
			return nil, ingestErr
		}
		if in.hasEdge[i] {
			p.latencies = append(p.latencies, d)
		}
		if p.ttfd == 0 {
			for _, a := range res.Alerts {
				if a.Kind == "closed" && covers(a.Faults, in.bugs) {
					p.ttfd = time.Since(m.t0)
					break
				}
			}
		}
		alerts = append(alerts, res.Alerts...)
		p.active = append(p.active, res.CyclesActive)
	}
	m.stop()
	p.meter = *m
	p.stats = mon.Stats()
	h := sha256.New()
	for _, a := range alerts {
		fmt.Fprintf(h, "%d %s %s %d\n", a.Seq, a.Kind, a.Signature, a.Records)
	}
	p.alertSHA = fmt.Sprintf("%x", h.Sum(nil))[:16]
	return p, nil
}

// checkFullReplay shows that the whole stream, ingested as one batch into
// an unbounded window, reproduces the campaign's cycle-signature set.
func checkFullReplay(in *streamInput, out *outcome) error {
	mon := monitor.New(monitor.Config{})
	res, err := mon.Ingest(bytes.NewReader(in.all()))
	if err != nil {
		return err
	}
	got := mon.Signatures()
	same := len(got) == len(in.sigs)
	for i := 0; same && i < len(got); i++ {
		same = got[i] == in.sigs[i]
	}
	out.check(res.Skipped == 0, "full replay skipped %d records", res.Skipped)
	out.check(same, "full replay has %d cycle signatures, campaign %d", len(got), len(in.sigs))
	out.endOp()
	return nil
}

// setupReps is how often the monitor-stream set-up is repeated for the
// setup_s median.
const setupReps = 5

// streamE2E is the untraced run of monitor-stream.
func streamE2E(w workload, b budget, startup float64, log func(string, ...any)) (*outcome, error) {
	out := newOutcome()
	var in *streamInput
	var s samples
	for i := 0; i < setupReps; i++ {
		built, err := buildStream(w)
		if err != nil {
			return nil, err
		}
		in = built
		s.setups = append(s.setups, in.setup.Seconds())
		s.campWalls = append(s.campWalls, in.wall.Seconds())
		s.simsPerS = append(s.simsPerS, float64(in.sims)/in.wall.Seconds())
	}
	log("stream: campaign seed %d (fixed), %d records in %d batches, campaign wall=%.3fs sims=%d signatures=%d",
		streamSeed, in.records, len(in.batches), in.wall.Seconds(), in.sims, len(in.sigs))
	if err := checkFullReplay(in, out); err != nil {
		return nil, err
	}

	var first *streamPass
	var walls []float64
	for len(walls) == 0 || b.fits(walls) {
		p, err := replay(in, nil)
		if err != nil {
			return nil, err
		}
		if first == nil {
			first = p
		}
		n := len(walls) + 1
		out.check(p.stats.Skipped == 0, "pass %d skipped %d records", n, p.stats.Skipped)
		out.check(p.alertSHA == first.alertSHA, "pass %d alert sequence differs from pass 1", n)
		out.check(p.stats.Alerts > 0, "pass %d raised no alert", n)
		out.check(p.ttfd > 0, "pass %d alerted on no seeded bug", n)
		out.endOp()
		walls = append(walls, p.wall.Seconds())
		s.cpus = append(s.cpus, p.cpu.Seconds())
		s.allocs = append(s.allocs, p.alloc)
		s.ttfds = append(s.ttfds, p.ttfd.Seconds())
		s.recsPerS = append(s.recsPerS, float64(in.records)/p.wall.Seconds())
		for _, l := range p.latencies {
			s.latsMS = append(s.latsMS, 1e3*l.Seconds())
		}
		log("pass %d: wall=%.3fs batches=%d alerts=%d rebuilds=%d evicted=%d ttfd=%.3fs",
			n, p.wall.Seconds(), p.stats.Batches, p.stats.Alerts, p.stats.Rebuilds, p.stats.Evicted, p.ttfd.Seconds())
	}
	log("identity %s", first.alertSHA)
	s.publish(out, startup, log)
	return out, nil
}

// edgeOf materializes a wire edge record the way the monitor does.
func edgeOf(e *monitor.EdgeRecord) fca.Edge {
	return fca.Edge{
		From: faults.ID(e.From), To: faults.ID(e.To),
		Kind:      faults.EdgeKind(e.Kind),
		FromClass: faults.FaultClass(e.FromClass), ToClass: faults.FaultClass(e.ToClass),
		Test:      e.Test,
		FromState: compat.State{Occ: occOf(e.FromOcc), DelayFault: e.FromDelay},
		ToState:   compat.State{Occ: occOf(e.ToOcc), DelayFault: e.ToDelay},
	}
}

func occOf(occ []monitor.OccRecord) []trace.Occurrence {
	if len(occ) > trace.OccCap {
		occ = occ[:trace.OccCap]
	}
	var out []trace.Occurrence
	for _, jo := range occ {
		o := trace.Occurrence{Stack: jo.Stack}
		for _, b := range jo.Branches {
			o.Branches = append(o.Branches, sim.BranchEval{ID: b.ID, Taken: b.Taken})
		}
		out = append(out, o)
	}
	return out
}

// streamTraced is the traced run of monitor-stream: one pass with a span
// per Ingest, then the window and the search replayed on their own over
// the same batches, outside the monitor.
func streamTraced(w workload, tr *tracer, log func(string, ...any)) (*outcome, error) {
	out := newOutcome()
	in, err := buildStream(w)
	if err != nil {
		return nil, err
	}
	pass, err := replay(in, tr)
	if err != nil {
		return nil, err
	}
	out.check(pass.stats.Skipped == 0, "traced pass skipped %d records", pass.stats.Skipped)
	out.endOp()

	win := graph.NewWindow(streamWindow, streamBuckets)
	inc := beam.NewIncremental(beam.Options{})
	var observe, rebuild, search, maxSearch time.Duration
	pinned, cycles := 0, 0
	for bi, b := range in.batches {
		rebuilt := false
		for _, line := range bytes.Split(bytes.TrimSpace(b), []byte("\n")) {
			var rec monitor.Record
			if err := json.Unmarshal(line, &rec); err != nil {
				return nil, fmt.Errorf("probe decode: %w", err)
			}
			switch rec.T {
			case "hello":
				win.SetSystem(rec.System)
			case "static":
				win.AddStatic(edgeOf(rec.Edge))
			case "nest":
				win.SetNestGroup(faults.ID(rec.Fault), rec.Group)
			case "score":
				win.SetScore(faults.ID(rec.Fault), rec.Score)
			case "edge":
				e, at := edgeOf(rec.Edge), time.Unix(0, rec.AtMS*int64(time.Millisecond))
				t := time.Now()
				_, rb := win.Observe(e, at)
				d := time.Since(t)
				observe += d
				if rb {
					rebuild += d
					rebuilt = true
				}
			}
		}
		win.Annotate()
		g := win.Graph()
		if n := len(g.NestGroups()); rebuilt || n != pinned {
			inc.Reset()
			pinned = n
		}
		t := time.Now()
		cycles = len(inc.Search(g, nil))
		d := time.Since(t)
		search += d
		maxSearch = max(maxSearch, d)
		out.check(cycles == pass.active[bi], "batch %d: probe search has %d cycles, monitor %d", bi, cycles, pass.active[bi])
	}
	out.check(win.Rebuilds() == pass.stats.Rebuilds, "probe window rebuilt %d times, monitor %d", win.Rebuilds(), pass.stats.Rebuilds)
	out.endOp()

	ingest := tr.total("monitor.ingest")
	log("traced pass: ingest=%.3fs = window %.3fs + search %.3fs + parse/diff %.3fs; sims in timed part: 0",
		ingest.Seconds(), observe.Seconds(), search.Seconds(), (ingest - observe - search).Seconds())
	out.set("monitor.ingest_s", ingest.Seconds())
	out.set("monitor.batches", float64(pass.stats.Batches))
	out.set("monitor.records", float64(pass.stats.Records))
	out.set("monitor.alerts", float64(pass.stats.Alerts))
	out.set("monitor.skipped", float64(pass.stats.Skipped))
	out.set("monitor.search_s", search.Seconds())
	out.set("monitor.parse_self_s", (ingest - observe - search).Seconds())
	out.set("window.observe_s", observe.Seconds())
	out.set("window.rebuilds", float64(win.Rebuilds()))
	out.set("window.rebuild_s", rebuild.Seconds())
	out.set("window.evicted", float64(win.Evicted()))
	out.set("window.retained", float64(win.Retained()))
	// The monitor's search is the incremental engine, one round a batch.
	out.set("beam.incremental_s", search.Seconds())
	out.set("beam.incremental_rounds", float64(len(in.batches)))
	out.set("beam.incremental_max_round_s", maxSearch.Seconds())
	out.set("beam.cycles", float64(cycles))
	if search > 0 {
		out.set("beam.cycles_per_s", float64(cycles)/search.Seconds())
	}
	return out, nil
}
