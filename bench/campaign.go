package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/core/beam"
	"repro/internal/core/csnake"
	"repro/internal/core/fca"
	"repro/internal/faults"
	"repro/internal/report"
	"repro/internal/systems/sysreg"
)

// rusage reads the process's resource usage; the zero value on error
// (Getrusage on the calling process does not fail on Linux).
func rusage() syscall.Rusage {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return ru
}

// cpuTime returns the user+system CPU time this process has used.
func cpuTime() time.Duration {
	ru := rusage()
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB returns the process's peak resident set (Linux reports KiB).
func peakRSSMB() float64 { return float64(rusage().Maxrss) / 1024 }

func totalAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

const mb = 1 << 20

// meter measures one timed operation: wall, CPU and bytes allocated.
type meter struct {
	t0    time.Time
	cpu0  time.Duration
	mem0  uint64
	wall  time.Duration
	cpu   time.Duration
	alloc float64 // MB
}

// startMeter collects garbage first, so one operation's heap does not
// decide when the next one's collections fall.
func startMeter() *meter {
	runtime.GC()
	return &meter{mem0: totalAlloc(), cpu0: cpuTime(), t0: time.Now()}
}

func (m *meter) stop() {
	m.wall = time.Since(m.t0)
	m.cpu = cpuTime() - m.cpu0
	m.alloc = float64(totalAlloc()-m.mem0) / mb
}

// campaignObserver timestamps, from outside the campaign, the events a
// user sees: each executed experiment (the evidence), each completed
// round and the finished report (the results).
type campaignObserver struct {
	csnake.NopObserver
	bugs []sysreg.Bug
	// onDetect, when set, is called at the first round that labels a
	// seeded bug (the ttfd-only samples cancel the campaign there).
	onDetect func()

	mu       sync.Mutex
	start    time.Time
	lastExp  time.Time // completion time of the latest executed experiment
	rawEdges int       // edge observations: the edge records an export would carry
	ttfd     time.Duration
	finished time.Time
}

func (o *campaignObserver) CampaignStarted(string, int, int) {
	o.mu.Lock()
	o.start = time.Now()
	o.mu.Unlock()
}

func (o *campaignObserver) EdgeDiscovered(fca.Edge) {
	o.mu.Lock()
	o.rawEdges++
	o.mu.Unlock()
}

func (o *campaignObserver) ExperimentExecuted(faults.ID, string, int, int) {
	o.mu.Lock()
	o.lastExp = time.Now()
	o.mu.Unlock()
}

// RoundCompleted implements csnake.RoundObserver: the first round whose
// clusters name a seeded bug is the campaign's first detection.
func (o *campaignObserver) RoundCompleted(r csnake.Round) {
	now := time.Now()
	detected := false
	for _, lc := range csnake.LabelClusters(r.Clusters, o.bugs) {
		if lc.Bug != "" {
			detected = true
			break
		}
	}
	o.mu.Lock()
	first := detected && o.ttfd == 0
	if first {
		o.ttfd = now.Sub(o.start)
	}
	o.mu.Unlock()
	if first && o.onDetect != nil {
		o.onDetect()
	}
}

func (o *campaignObserver) CampaignFinished(*csnake.Report) {
	o.mu.Lock()
	o.finished = time.Now()
	o.mu.Unlock()
}

// campaignRep is the outcome of one untraced Campaign.Run.
type campaignRep struct {
	meter
	setup     time.Duration
	sims      int
	rawEdges  int
	edges     int
	cycles    int
	clusters  int
	ttfd      time.Duration
	latency   time.Duration // last experiment executed -> report finished
	bugs      string        // detected seeded bugs, comma-joined
	reportSHA string        // sha256 of report.WriteJSON
	identity  string        // cycle count + cluster keys digest
}

// identityOf digests what the user reads from a report, independent of
// how the search was driven: the cycle count and the cluster keys with
// their sizes.
func identityOf(cycles int, clusters []beam.CycleCluster) string {
	h := sha256.New()
	fmt.Fprintf(h, "cycles=%d\n", cycles)
	for _, cc := range clusters {
		fmt.Fprintf(h, "%s %d\n", cc.Key, len(cc.Cycles))
	}
	return fmt.Sprintf("%x", h.Sum(nil))[:16]
}

// runCampaign sets one campaign up and times its Run. extra options ride
// behind the workload's own.
func runCampaign(w workload, seed int64, obs *campaignObserver, extra ...csnake.Option) (*campaignRep, *csnake.Report, error) {
	t0 := time.Now()
	sys, ok := sysreg.Lookup(w.system)
	if !ok {
		return nil, nil, fmt.Errorf("system %q not registered", w.system)
	}
	obs.bugs = sys.Bugs()
	opts := append(w.options(seed), csnake.WithObserver(obs))
	camp := csnake.NewCampaign(sys, append(opts, extra...)...)
	out := &campaignRep{setup: time.Since(t0)}

	m := startMeter()
	rep, err := camp.Run()
	m.stop()
	out.meter = *m
	if err != nil && !errors.Is(err, context.Canceled) {
		return nil, nil, err
	}
	out.sims = rep.Sims
	out.rawEdges = obs.rawEdges
	out.edges = len(rep.Edges)
	out.cycles = len(rep.Cycles)
	out.clusters = len(rep.CycleClusters)
	out.ttfd = obs.ttfd
	if err != nil {
		return out, rep, nil // cancelled on purpose: a ttfd-only sample
	}
	out.latency = obs.finished.Sub(obs.lastExp)
	out.bugs = strings.Join(csnake.DetectedBugs(rep, sys.Bugs()), ",")
	if !w.anytime && out.bugs != "" {
		// A batch campaign shows its first detection with its report.
		out.ttfd = obs.finished.Sub(obs.start)
	}
	var buf bytes.Buffer
	if err := report.WriteJSON(&buf, rep, sys.Bugs()); err != nil {
		return nil, nil, err
	}
	out.reportSHA = fmt.Sprintf("%x", sha256.Sum256(buf.Bytes()))[:16]
	out.identity = identityOf(len(rep.Cycles), rep.CycleClusters)
	return out, rep, nil
}

// ttfdGroup is how many ttfd-only samples the anytime workload takes
// before its first full rep and again after every full rep. A full rep
// costs some fifteen times its time to first detection, so the cheap
// samples carry the median; a second of parallel work on a shared host
// moves by a tenth or more from one sample to the next and drifts over
// tens of seconds, so there are many of them and they are spread over the
// whole run, not taken in one stretch of it. Each runs at a campaign seed
// of its own (seed+1, seed+2, ...): how soon the first waves expose a bug
// depends on the seeded schedule, and the median over several schedules is
// what a user can expect.
const ttfdGroup = 4

// ttfdSample runs an anytime campaign only until the first round that
// labels a seeded bug, then cancels it.
func ttfdSample(w workload, seed int64) (time.Duration, error) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	obs := &campaignObserver{onDetect: cancel}
	out, _, err := runCampaign(w, seed, obs, csnake.WithContext(ctx))
	if err != nil {
		return 0, err
	}
	return out.ttfd, nil
}

// budget decides how many repetitions a run makes: another one whenever
// that brings the run's length closer to the requested seconds than
// stopping would, and never fewer than minReps.
type budget struct {
	begin   time.Time
	seconds float64
}

const minReps = 2

func (b budget) fits(done []float64) bool {
	if len(done) < minReps {
		return true
	}
	return time.Since(b.begin).Seconds()+median(done)/2 <= b.seconds
}

// samples holds one value per repetition for every end-to-end metric
// (several per repetition for the latencies); publish reduces them.
type samples struct {
	setups, campWalls, simsPerS, cpus, allocs, ttfds, recsPerS, latsMS []float64
}

// publish sets the end-to-end metrics: medians of the repetitions, the
// latency percentiles over the pooled samples, and the process's peak
// RSS. startup is the start-up probe's median, part of the set-up.
func (s *samples) publish(out *outcome, startup float64, log func(string, ...any)) {
	log("samples: reps=%d ttfd=%d alert_latency=%d", len(s.cpus), len(s.ttfds), len(s.latsMS))
	out.set("setup_s", startup+median(s.setups))
	out.set("campaign_wall_s", median(s.campWalls))
	out.set("sims_per_s", median(s.simsPerS))
	out.set("cpu_s", median(s.cpus))
	out.set("alloc_mb", median(s.allocs))
	out.set("peak_rss_mb", peakRSSMB())
	out.set("ttfd_s", median(s.ttfds))
	out.set("ingest_records_per_s", median(s.recsPerS))
	out.set("alert_latency_ms_p50", percentile(s.latsMS, 50))
	out.set("alert_latency_ms_p90", percentile(s.latsMS, 90))
}

// campaignE2E is the untraced run of a campaign workload.
func campaignE2E(w workload, seed int64, b budget, startup float64, log func(string, ...any)) (*outcome, error) {
	out := newOutcome()
	var first *campaignRep
	var s samples
	ttfdSeed := seed
	ttfdOnly := func() error {
		for i := 0; w.anytime && i < ttfdGroup; i++ {
			ttfdSeed++
			d, err := ttfdSample(w, ttfdSeed)
			if err != nil {
				return err
			}
			out.check(d > 0, "ttfd-only sample at seed %d saw no detection", ttfdSeed)
			out.endOp()
			s.ttfds = append(s.ttfds, d.Seconds())
			log("ttfd-only sample at seed %d: %.3fs", ttfdSeed, d.Seconds())
		}
		return nil
	}
	if err := ttfdOnly(); err != nil {
		return nil, err
	}
	for len(s.campWalls) == 0 || b.fits(s.campWalls) {
		r, _, err := runCampaign(w, seed, &campaignObserver{})
		if err != nil {
			return nil, err
		}
		if first == nil {
			first = r
		}
		n := len(s.campWalls) + 1
		out.check(r.bugs != "", "rep %d detected no seeded bug", n)
		out.check(r.bugs == first.bugs, "rep %d detected %q, rep 1 %q", n, r.bugs, first.bugs)
		out.check(r.reportSHA == first.reportSHA, "rep %d report differs from rep 1", n)
		out.check(r.ttfd > 0, "rep %d has no first detection", n)
		out.endOp()
		s.setups = append(s.setups, r.setup.Seconds())
		s.campWalls = append(s.campWalls, r.wall.Seconds())
		s.simsPerS = append(s.simsPerS, float64(r.sims)/r.wall.Seconds())
		s.cpus = append(s.cpus, r.cpu.Seconds())
		s.allocs = append(s.allocs, r.alloc)
		s.ttfds = append(s.ttfds, r.ttfd.Seconds())
		s.recsPerS = append(s.recsPerS, float64(r.rawEdges)/r.wall.Seconds())
		s.latsMS = append(s.latsMS, 1e3*r.latency.Seconds())
		log("rep %d: wall=%.3fs sims=%d edges=%d cycles=%d clusters=%d bugs=[%s] ttfd=%.3fs",
			n, r.wall.Seconds(), r.sims, r.edges, r.cycles, r.clusters, r.bugs, r.ttfd.Seconds())
		if err := ttfdOnly(); err != nil {
			return nil, err
		}
	}
	log("identity %s report %s", first.identity, first.reportSHA)
	s.publish(out, startup, log)
	return out, nil
}
