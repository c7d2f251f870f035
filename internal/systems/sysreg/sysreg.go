// Package sysreg defines the contract between CSnake and its target
// systems, and the global registry that binaries resolve them from.
//
// A System exposes its instrumented fault points, loop nesting,
// integration-test workloads, source directories (for the static
// analyzer's cross-check), and ground-truth bug labels used by the
// evaluation (Tables 3 and 4). Space builds the filtered fault space F
// from a system's declared points.
//
// System packages self-register a factory in init() under a canonical
// display name plus CLI aliases:
//
//	func init() { sysreg.Register("HBase", New, "hbase") }
//
// Binaries blank-import the system packages they want available and
// resolve by any accepted name: Lookup returns (System, bool); Resolve
// returns an error that lists every known name and suggests the closest
// match on a miss. Registration stores factories rather than instances,
// so every Lookup hands out an independent value; claiming a name that
// already resolves to a different system panics at init() time.
package sysreg

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/faults"
	"repro/internal/inject"
	"repro/internal/sim"
)

// RunContext is handed to a workload: the simulator instance to build the
// cluster on and the injection runtime the instrumented system code calls.
type RunContext struct {
	Engine *sim.Engine
	RT     *inject.Runtime
}

// Workload is one integration test shipped with a target system. Run sets
// up the cluster and client processes; the harness then drives the engine
// until Horizon.
type Workload struct {
	Name string
	Desc string
	// Horizon is the virtual-time budget of the test.
	Horizon time.Duration
	// Run builds the scenario. It must not call Engine.Run itself.
	Run func(ctx *RunContext)
}

// Bug is a ground-truth self-sustaining cascading failure seeded in a
// target system, mirroring one Table 3 row.
type Bug struct {
	// ID is the per-system index, e.g. "HDFS2-6".
	ID string
	// JIRA is the upstream issue the paper reported (for documentation).
	JIRA string
	// Title summarises the delayed task, Table 3 column 2.
	Title string
	// CoreFaults must all appear among a detected cycle's faults for the
	// cycle to be labelled as this bug.
	CoreFaults []faults.ID
	// Delays/Exceptions/Negations are the expected cycle composition
	// (Table 3 "Cycle" column).
	Delays, Exceptions, Negations int
	// SingleTest marks bugs whose triggering conditions co-occur in one
	// workload, i.e. the §8.2 naive strategy can find them ("Alt?").
	SingleTest bool
	// Duplicate marks a bug also present in a sibling system variant
	// (the HDFS 2 bugs rediscovered on HDFS 3); Table 3 skips them and
	// Table 4 footnotes them.
	Duplicate bool
}

// System is a CSnake target.
type System interface {
	// Name is the display name used in tables (e.g. "HDFS 2").
	Name() string
	// Points lists every instrumented injection/monitor point, before
	// filtering. The static analyzer cross-checks this inventory.
	Points() []faults.Point
	// Nests lists loop nesting relations for the ICFG/CFG edges.
	Nests() []faults.LoopNest
	// Workloads lists the integration tests.
	Workloads() []Workload
	// Bugs lists the seeded ground-truth cascading failures.
	Bugs() []Bug
	// SourceDirs names the Go package directories (relative to the repo
	// root) holding this system's instrumented source, for the static
	// analyzer.
	SourceDirs() []string
}

// Space builds the filtered fault space of a system.
func Space(s System) *faults.Space {
	return faults.NewSpace(s.Points(), s.Nests())
}

// Factory constructs a fresh System instance. Registration stores
// factories rather than instances so that package init stays cheap and
// every Lookup hands out an independent value.
type Factory func() System

type entry struct {
	name    string
	factory Factory
}

var (
	regMu   sync.Mutex
	regged  = map[string]*entry{} // canonical name -> entry
	aliases = map[string]string{} // alias (and canonical name) -> canonical name
)

// Register adds a system factory to the global registry under its
// canonical display name plus any CLI aliases (e.g. "HDFS 2" with alias
// "hdfs2"). System packages call this from init(); re-registering a name
// replaces the previous entry (its existing aliases keep pointing at it).
// Claiming a name or alias that already resolves to a *different* system
// panics: a silent hijack of another system's name is always a
// programming error, and init()-time is the moment to hear about it.
func Register(name string, factory Factory, names ...string) {
	regMu.Lock()
	defer regMu.Unlock()
	for _, a := range append([]string{name}, names...) {
		if canon, taken := aliases[a]; taken && canon != name {
			panic(fmt.Sprintf("sysreg: alias %q for system %q already registered for system %q", a, name, canon))
		}
	}
	regged[name] = &entry{name: name, factory: factory}
	aliases[name] = name
	for _, a := range names {
		aliases[a] = name
	}
}

// All constructs one instance of every registered system, sorted by
// canonical name.
func All() []System {
	regMu.Lock()
	factories := make([]Factory, 0, len(regged))
	names := make([]string, 0, len(regged))
	for n := range regged {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		factories = append(factories, regged[n].factory)
	}
	regMu.Unlock()
	out := make([]System, 0, len(factories))
	for _, f := range factories {
		out = append(out, f())
	}
	return out
}

// Names returns the sorted canonical names of all registered systems.
func Names() []string {
	regMu.Lock()
	defer regMu.Unlock()
	out := make([]string, 0, len(regged))
	for n := range regged {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Aliases returns every name Lookup accepts (canonical names and
// aliases), sorted.
func Aliases() []string {
	regMu.Lock()
	defer regMu.Unlock()
	out := make([]string, 0, len(aliases))
	for a := range aliases {
		out = append(out, a)
	}
	sort.Strings(out)
	return out
}

// AliasesOf returns the sorted aliases registered for a canonical name,
// excluding the name itself. Unknown names yield nil.
func AliasesOf(name string) []string {
	regMu.Lock()
	defer regMu.Unlock()
	var out []string
	for a, canon := range aliases {
		if canon == name && a != name {
			out = append(out, a)
		}
	}
	sort.Strings(out)
	return out
}

// Lookup constructs the system registered under a canonical name or
// alias.
func Lookup(name string) (System, bool) {
	regMu.Lock()
	canon, ok := aliases[name]
	var f Factory
	if ok {
		f = regged[canon].factory
	}
	regMu.Unlock()
	if !ok {
		return nil, false
	}
	return f(), true
}

// Resolve is Lookup with a self-explanatory failure: the error of an
// unknown name suggests the closest registered name (case-insensitive,
// small edit distance) and always lists everything Lookup would accept.
func Resolve(name string) (System, error) {
	if sys, ok := Lookup(name); ok {
		return sys, nil
	}
	known := Aliases()
	msg := fmt.Sprintf("unknown system %q", name)
	if s := closest(name, known); s != "" {
		msg += fmt.Sprintf(" (did you mean %q?)", s)
	}
	return nil, fmt.Errorf("%s; known systems: %s", msg, strings.Join(known, ", "))
}

// closest returns the candidate within a small edit distance of name,
// case-insensitively; "" when nothing is plausibly a typo.
func closest(name string, candidates []string) string {
	best, bestDist := "", 3 // accept at most two edits
	lower := strings.ToLower(name)
	for _, c := range candidates {
		if d := editDistance(lower, strings.ToLower(c)); d < bestDist {
			best, bestDist = c, d
		}
	}
	return best
}

// editDistance is plain Levenshtein over bytes; the inputs are short
// registry names, so the quadratic table is irrelevant.
func editDistance(a, b string) int {
	prev := make([]int, len(b)+1)
	cur := make([]int, len(b)+1)
	for j := range prev {
		prev[j] = j
	}
	for i := 1; i <= len(a); i++ {
		cur[0] = i
		for j := 1; j <= len(b); j++ {
			cost := 1
			if a[i-1] == b[j-1] {
				cost = 0
			}
			cur[j] = min(min(cur[j-1]+1, prev[j]+1), prev[j-1]+cost)
		}
		prev, cur = cur, prev
	}
	return prev[len(b)]
}
