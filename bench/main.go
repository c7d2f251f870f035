// Command bench is the repository's benchmark of record: four named
// workloads, the end-to-end metrics a user of the system sees, and a
// separate traced run that times the calls into each layer from outside.
//
//	go run ./bench [-seed 42] [-workload NAME] [-sets N] [-list]
//
// Without -trace it runs every selected workload in a child process of
// its own (so peak RSS and CPU are per workload and one workload's heap
// cannot warm the next), first untraced, then traced, and prints every
// metric by name with its unit. With -trace 0 or -trace 1 it is that
// child: it runs one workload in this process and prints one JSON object
// as its last line, the form BENCHMARK.json's command is driven in.
// README.md in this directory explains the workloads and metrics.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"repro/internal/core/csnake"
	"repro/internal/harness"
	"repro/internal/systems/sysreg"

	_ "repro/internal/systems/kvstore"
	_ "repro/internal/systems/metastore"
)

// value is one reported number in the contract's output form.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object a child prints as its last line.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// outcome collects a run's metrics and its checked operations. One
// operation is one rep or pass with all its checks; check marks the
// current operation failed, endOp closes it.
type outcome struct {
	attempted, failed int
	opFailed          bool
	failures          []string
	metrics           map[string]float64
}

func newOutcome() *outcome { return &outcome{metrics: make(map[string]float64)} }

func (o *outcome) check(ok bool, format string, args ...any) {
	if !ok {
		o.opFailed = true
		o.failures = append(o.failures, fmt.Sprintf(format, args...))
	}
}

func (o *outcome) endOp() {
	o.attempted++
	if o.opFailed {
		o.failed++
	}
	o.opFailed = false
}

func (o *outcome) set(name string, v float64) { o.metrics[name] = v }

// result renders the outcome over the metric list of the run's mode. An
// end-to-end metric that was not measured is an error; a per-layer one
// reads 0 (the layer is not on the workload's path).
func (o *outcome) result(list []metric, traced bool) (result, error) {
	r := result{Correct: o.failed == 0, Attempted: o.attempted, Failed: o.failed,
		Metrics: make(map[string]value, len(list))}
	for _, m := range list {
		v, ok := o.metrics[m.Name]
		if !ok && !traced {
			return r, fmt.Errorf("metric %s was not measured", m.Name)
		}
		r.Metrics[m.Name] = value{Value: v, Unit: m.Unit}
	}
	return r, nil
}

func main() {
	seed := flag.Int64("seed", 42, "workload seed (feeds csnake.Config.Seed)")
	name := flag.String("workload", "", "run only this workload")
	list := flag.Bool("list", false, "print every workload and metric name and exit")
	sets := flag.Int("sets", 1, "run the whole benchmark this many times and compare the sets")
	traceOut := flag.String("trace-out", ".bench_out", "directory the traced run writes its span files to")
	trace := flag.String("trace", "", "child mode: 0 = untraced end-to-end run, 1 = traced per-layer run; prints one JSON object last")
	secs := flag.Int("seconds", 0, "run length of one child run (default: run_seconds of "+benchmarkFile+")")
	startup := flag.Bool("startup", false, "internal: exit once a campaign of the workload is ready to inject (the setup_s probe)")
	flag.Parse()

	if *list {
		printList()
		return
	}
	selected := workloads
	if *name != "" {
		w, ok := workloadByName(*name)
		if !ok {
			fatal(fmt.Errorf("unknown workload %q (see -list)", *name))
		}
		selected = []workload{w}
	}
	if *startup {
		if err := getReady(selected[0], *seed); err != nil {
			fatal(err)
		}
		return
	}
	if *secs == 0 {
		n, err := runSeconds()
		if err != nil {
			fatal(err)
		}
		*secs = n
	}
	switch *trace {
	case "":
		os.Exit(orchestrate(selected, *seed, *secs, *sets, *traceOut))
	case "0", "1":
		if *name == "" {
			fatal(fmt.Errorf("-trace needs -workload"))
		}
		os.Exit(child(selected[0], *seed, *secs, *trace == "1", *traceOut))
	default:
		fatal(fmt.Errorf("-trace %q: want 0 or 1", *trace))
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(2)
}

func printList() {
	fmt.Println("workloads:")
	for _, w := range workloads {
		fmt.Printf("  %-22s %s\n", w.name, w.why)
	}
	fmt.Println("end-to-end metrics (every workload reports each):")
	for _, m := range endToEnd {
		fmt.Printf("  %-30s %-6s %s is better, bound %g%%\n", m.Name, m.Unit, m.Better, 100*m.Bound)
	}
	fmt.Println("per-layer metrics (traced run; 0 where the layer is not on the workload's path):")
	for _, m := range perLayer {
		fmt.Printf("  %-30s %-6s %s is better\n", m.Name, m.Unit, m.Better)
	}
}

// startupReps is how often the start-up probe is repeated for the
// setup_s median.
const startupReps = 5

// getReady is everything a campaign of the workload does before its first
// experiment can be planned: registry lookup, fault space, driver
// construction and the profile runs that build the coverage map. The
// start-up probe runs it in a fresh process, so runtime start and package
// initialisation are in the measurement too.
func getReady(w workload, seed int64) error {
	sys, ok := sysreg.Lookup(w.system)
	if !ok {
		return fmt.Errorf("system %q not registered", w.system)
	}
	camp := csnake.NewCampaign(sys, w.options(seed)...)
	hcfg := camp.Config().Harness
	hcfg.Parallelism = camp.Parallelism()
	driver := harness.New(sys, sysreg.Space(sys), hcfg)
	driver.ProfileAll()
	driver.Release()
	return nil
}

// startupProbe times getReady from outside: it re-executes this binary
// with -startup and reports the median wall time from launch to exit.
// Milliseconds of process start alone would move by a third with the
// host's mood; with the profile runs in, the probe is as steady as the
// campaigns are.
func startupProbe(w workload, seed int64) (float64, error) {
	self, err := os.Executable()
	if err != nil {
		return 0, err
	}
	var walls []float64
	for i := 0; i < startupReps; i++ {
		t := time.Now()
		cmd := exec.Command(self, "-startup", "-workload", w.name, "-seed", fmt.Sprint(seed))
		cmd.Stderr = os.Stderr
		if err := cmd.Run(); err != nil {
			return 0, fmt.Errorf("start-up probe: %w", err)
		}
		walls = append(walls, time.Since(t).Seconds())
	}
	return median(walls), nil
}

// measure runs one workload in this process, untraced or traced.
func measure(w workload, seed int64, secs int, traced bool, traceOut string, log func(string, ...any)) (*outcome, error) {
	if !traced {
		b := budget{begin: time.Now(), seconds: float64(secs)}
		startup, err := startupProbe(w, seed)
		if err != nil {
			return nil, err
		}
		if w.stream {
			return streamE2E(w, b, startup, log)
		}
		return campaignE2E(w, seed, b, startup, log)
	}
	tr := newTracer()
	var (
		out *outcome
		err error
	)
	if w.stream {
		out, err = streamTraced(w, tr, log)
	} else {
		out, err = campaignTraced(w, seed, tr, log)
	}
	if err != nil {
		return nil, err
	}
	path := filepath.Join(traceOut, "spans-"+w.name+".json")
	if err := tr.write(path); err != nil {
		return nil, err
	}
	log("spans: %d written to %s", len(tr.spans), path)
	return out, nil
}

// child runs one workload in this process and prints its result as the
// last line of standard output.
func child(w workload, seed int64, secs int, traced bool, traceOut string) int {
	log := func(format string, args ...any) { fmt.Printf("  "+format+"\n", args...) }
	log("%s seed=%d seconds=%d nproc=%d GOMAXPROCS=%d parallelism=%d closed loop, 1 client",
		w.name, seed, secs, runtime.NumCPU(), runtime.GOMAXPROCS(0), parallelism())
	list := endToEnd
	if traced {
		list = perLayer
	}
	out, err := measure(w, seed, secs, traced, traceOut, log)
	var r result
	var line []byte
	if err == nil {
		for _, f := range out.failures {
			log("FAILED: %s", f)
		}
		r, err = out.result(list, traced)
	}
	if err == nil {
		line, err = json.Marshal(r)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	fmt.Println(string(line))
	if !r.Correct {
		return 1
	}
	return 0
}

// runChild re-executes this binary for one workload and mode, passes its
// narration through, and returns its result and identity line.
func runChild(w workload, seed int64, secs int, traced bool, traceOut string) (result, string, error) {
	var r result
	self, err := os.Executable()
	if err != nil {
		return r, "", err
	}
	mode := "0"
	if traced {
		mode = "1"
	}
	cmd := exec.Command(self, "-workload", w.name, "-seed", fmt.Sprint(seed),
		"-seconds", fmt.Sprint(secs), "-trace", mode, "-trace-out", traceOut)
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	runErr := cmd.Run()
	var last, identity string
	sc := bufio.NewScanner(&stdout)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if last != "" {
			fmt.Println(last)
		}
		last = sc.Text()
		if f := strings.Fields(last); len(f) >= 2 && f[0] == "identity" {
			identity = f[1]
		}
	}
	if err := json.Unmarshal([]byte(last), &r); err != nil {
		return r, "", fmt.Errorf("%s -trace %s printed no report (%v): %v", w.name, mode, runErr, err)
	}
	return r, identity, nil
}

// orchestrate runs every selected workload, untraced then traced, each in
// its own child process, sets times over, and prints the metrics.
func orchestrate(selected []workload, seed int64, secs, sets int, traceOut string) int {
	failed := false
	// e2e[workload][metric] holds one value per set.
	e2e := make(map[string]map[string][]float64)
	for set := 1; set <= sets; set++ {
		identities := make(map[string]string)
		for _, w := range selected {
			fmt.Printf("== set %d/%d: %s ==\n", set, sets, w.name)
			fmt.Printf("  why: %s\n", w.why)
			for _, traced := range []bool{false, true} {
				list, title := endToEnd, "end-to-end (untraced run)"
				if traced {
					list, title = perLayer, "per-layer (traced run)"
				}
				r, identity, err := runChild(w, seed, secs, traced, traceOut)
				if err != nil {
					fmt.Fprintln(os.Stderr, "bench:", err)
					return 2
				}
				fmt.Printf("  %s: %d of %d operations failed (failed_share %.3f)\n",
					title, r.Failed, r.Attempted, float64(r.Failed)/float64(max(r.Attempted, 1)))
				for _, m := range list {
					fmt.Printf("    %-30s %14.4f %s\n", m.Name, r.Metrics[m.Name].Value, m.Unit)
				}
				failed = failed || !r.Correct
				if traced {
					continue
				}
				identities[w.name] = identity
				if e2e[w.name] == nil {
					e2e[w.name] = make(map[string][]float64)
				}
				for _, m := range endToEnd {
					e2e[w.name][m.Name] = append(e2e[w.name][m.Name], r.Metrics[m.Name].Value)
				}
			}
		}
		batch, anytime := identities["campaign-search-heavy"], identities["anytime-search-heavy"]
		if batch != "" && anytime != "" {
			if batch == anytime {
				fmt.Println("check: anytime-search-heavy's cycle count and cluster keys equal campaign-search-heavy's")
			} else {
				fmt.Println("FAILED: anytime-search-heavy's cycle count or cluster keys differ from campaign-search-heavy's")
				failed = true
			}
		}
	}
	if sets > 1 {
		fmt.Printf("== agreement of %d sets (each value is one set's in-run median) ==\n", sets)
		for _, w := range selected {
			for _, m := range endToEnd {
				vals := e2e[w.name][m.Name]
				verdict := "agree"
				if !agree(vals, m) {
					verdict = "DISAGREE"
				}
				fmt.Printf("  %-22s %-24s %v %s  within %g%%: %s\n", w.name, m.Name, vals, m.Unit, 100*m.Bound, verdict)
			}
		}
	}
	if failed {
		fmt.Println("FAILED: see above")
		return 1
	}
	return 0
}
