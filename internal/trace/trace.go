// Package trace defines the execution traces CSnake records during profile
// and injection runs (§4.3): which throw points were reached, which error
// detectors observed errors, per-loop iteration counts, point coverage, and
// per-occurrence local state (branch trace + 2-level call stack) for the
// local compatibility check (§6.2).
//
// Recording is the hottest non-simulator path of a campaign: every hook of
// every simulated event lands here. A Run therefore stores its per-fault
// counters in flat slices indexed by a dense int id -- the fault space's
// declaration index for injectable points, plus a small per-run overflow
// table for monitor-only ids -- instead of string-keyed maps, and Runs are
// recycled through a Pool across the harness's seeded repetitions.
package trace

import (
	"sort"
	"sync"
	"time"

	"repro/internal/faults"
	"repro/internal/sim"
)

// OccCap bounds how many per-fault occurrence states a run keeps. The
// compatibility check only needs representative local traces, and capping
// keeps retry storms from exhausting memory.
const OccCap = 8

// Occurrence captures the local state at one fault activation: the two
// innermost call-stack frames and the branch trace of the fault-happening
// loop iteration (or enclosing function when the fault is not in a loop).
// Both slices are shared snapshots (interned stacks, copy-on-write branch
// traces) and must be treated as immutable.
type Occurrence struct {
	Stack    []string
	Branches []sim.BranchEval
}

// Run is the trace of one simulated execution of one workload.
//
// Per-fault state lives in flat slices indexed by dense id: ids resolved
// through the run's fault space occupy [0, base), ids outside the space
// (monitor-only branches, statically filtered points) are interned into a
// per-run overflow table at [base, ...). Use the accessor methods
// (Reached, LoopIters, Covered, OccOf, LoopSiteOf) to read them.
type Run struct {
	Test string
	Seed int64

	space    *faults.Space
	base     int // space.Size() at construction; overflow ids start here
	extra    map[faults.ID]int
	extraIDs []faults.ID

	// Flat per-dense-id state. All of these grow in lockstep via grow().
	reached   []int // natural activations (injected ones are excluded)
	loopIters []int // loop iterations per loop point
	covered   []bool
	occ       [][]Occurrence // up to OccCap occurrence states per fault
	loopSite  []Occurrence   // first observed calling context per loop
	loopSeen  []bool

	// InjFired reports whether the planned injection actually triggered.
	InjFired bool
	// InjSite is the local state at the injection site when it fired.
	InjSite Occurrence

	// Result summarises the sim run; Wall is the real (host) time spent,
	// used by the §8.5 overhead experiment.
	Result sim.RunResult
	Wall   time.Duration
}

// NewRun returns an empty run trace with no backing fault space: every id
// it sees is interned into the run-local overflow table. The harness uses
// Pool instead, which shares the space's dense index across runs.
func NewRun(test string, seed int64) *Run {
	return &Run{Test: test, Seed: seed}
}

// newRunFor returns an empty run trace whose dense ids [0, space.Size())
// are the space's point indices.
func newRunFor(space *faults.Space) *Run {
	r := &Run{space: space}
	if space != nil {
		r.base = space.Size()
		r.grow(r.base - 1)
	}
	return r
}

// grow extends the flat state slices to cover dense id d.
func (r *Run) grow(d int) {
	if d < len(r.reached) {
		return
	}
	n := d + 1
	for len(r.reached) < n {
		r.reached = append(r.reached, 0)
		r.loopIters = append(r.loopIters, 0)
		r.covered = append(r.covered, false)
		r.occ = append(r.occ, nil)
		r.loopSite = append(r.loopSite, Occurrence{})
		r.loopSeen = append(r.loopSeen, false)
	}
}

// dense resolves id to its dense index, interning unknown ids into the
// run-local overflow table. The returned index is always covered by the
// flat state slices: space ids are pre-grown at construction, overflow
// ids grow on interning.
func (r *Run) dense(id faults.ID) int {
	if r.space != nil {
		if d, ok := r.space.Index(id); ok {
			return d
		}
	}
	if d, ok := r.extra[id]; ok {
		return r.base + d
	}
	if r.extra == nil {
		r.extra = make(map[faults.ID]int, 8)
	}
	d := r.base + len(r.extraIDs)
	r.extra[id] = len(r.extraIDs)
	r.extraIDs = append(r.extraIDs, id)
	r.grow(d)
	return d
}

// denseRO resolves id without interning; ok is false for ids never seen.
func (r *Run) denseRO(id faults.ID) (int, bool) {
	if r.space != nil {
		if d, ok := r.space.Index(id); ok {
			return d, true
		}
	}
	d, ok := r.extra[id]
	return r.base + d, ok
}

// universe returns the dense id count currently addressable in this run.
func (r *Run) universe() int { return r.base + len(r.extraIDs) }

// idAt maps a dense index back to its fault ID.
func (r *Run) idAt(d int) faults.ID {
	if d < r.base {
		return r.space.IDAt(d)
	}
	return r.extraIDs[d-r.base]
}

// Reset clears all recorded state so the Run can be reused for another
// seed. The dense id tables (space index and overflow interning) and the
// slice capacities survive, which is what makes pooled reuse cheap; the
// recorded values, occurrence references, and injection state do not.
func (r *Run) Reset() {
	r.Test, r.Seed = "", 0
	clear(r.reached)
	clear(r.loopIters)
	clear(r.covered)
	clear(r.loopSeen)
	clear(r.loopSite) // drop occurrence references, not just counters
	for i := range r.occ {
		clear(r.occ[i]) // release refs before truncating the backing array
		r.occ[i] = r.occ[i][:0]
	}
	r.InjFired = false
	r.InjSite = Occurrence{}
	r.Result = sim.RunResult{}
	r.Wall = 0
}

// Cover marks a point as covered.
func (r *Run) Cover(id faults.ID) {
	r.covered[r.dense(id)] = true
}

// Activate records a natural fault activation with its local state.
func (r *Run) Activate(id faults.ID, occ Occurrence) {
	d := r.dense(id)
	r.reached[d]++
	if len(r.occ[d]) < OccCap {
		r.occ[d] = append(r.occ[d], occ)
	}
}

// CoverActivate records coverage and a natural activation in one dense
// id resolution: the fused form of Cover followed by Activate. The
// dense lookup is the dominant cost of a hook that fires on every
// monitored event, so the hot hooks (inject.Guard/Negate) use the fused
// forms; recorded state is identical to the two separate calls.
func (r *Run) CoverActivate(id faults.ID, occ Occurrence) {
	d := r.dense(id)
	r.covered[d] = true
	r.reached[d]++
	if len(r.occ[d]) < OccCap {
		r.occ[d] = append(r.occ[d], occ)
	}
}

// LoopTick records coverage and one loop iteration in a single dense id
// resolution (the fused form of Cover + LoopIter) and reports whether
// the loop's calling context has not been recorded yet -- so the caller
// captures a stack and calls SeeLoop only once per (run, loop) instead
// of paying the capture and a third lookup on every iteration. Recorded
// state is identical to Cover + LoopIter + SeeLoop per iteration.
func (r *Run) LoopTick(id faults.ID) (needSite bool) {
	d := r.dense(id)
	r.covered[d] = true
	r.loopIters[d]++
	return !r.loopSeen[d]
}

// LoopIter records one loop iteration.
func (r *Run) LoopIter(id faults.ID) {
	r.loopIters[r.dense(id)]++
}

// AddLoopIters records n loop iterations at once (test fixtures).
func (r *Run) AddLoopIters(id faults.ID, n int) {
	r.loopIters[r.dense(id)] += n
}

// SeeLoop records the loop's calling context once per run.
func (r *Run) SeeLoop(id faults.ID, occ Occurrence) {
	d := r.dense(id)
	if !r.loopSeen[d] {
		r.loopSeen[d] = true
		r.loopSite[d] = occ
	}
}

// Reached returns the natural activation count of id.
func (r *Run) Reached(id faults.ID) int {
	if d, ok := r.denseRO(id); ok && d < len(r.reached) {
		return r.reached[d]
	}
	return 0
}

// LoopIters returns the recorded iteration count of loop id.
func (r *Run) LoopIters(id faults.ID) int {
	if d, ok := r.denseRO(id); ok && d < len(r.loopIters) {
		return r.loopIters[d]
	}
	return 0
}

// Covered reports whether the point's hook executed at all.
func (r *Run) Covered(id faults.ID) bool {
	if d, ok := r.denseRO(id); ok && d < len(r.covered) {
		return r.covered[d]
	}
	return false
}

// OccOf returns the recorded occurrence states of id (nil when none).
// The slice is owned by the run; callers must not mutate it.
func (r *Run) OccOf(id faults.ID) []Occurrence {
	if d, ok := r.denseRO(id); ok && d < len(r.occ) {
		return r.occ[d]
	}
	return nil
}

// LoopSiteOf returns the loop's recorded calling context, if any.
func (r *Run) LoopSiteOf(id faults.ID) (Occurrence, bool) {
	if d, ok := r.denseRO(id); ok && d < len(r.loopSeen) && r.loopSeen[d] {
		return r.loopSite[d], true
	}
	return Occurrence{}, false
}

// TotalReached returns the sum of natural activation counts across all
// points (the anomaly signal of the fuzzing baseline).
func (r *Run) TotalReached() int {
	n := 0
	for _, c := range r.reached {
		n += c
	}
	return n
}

// sortedIDsWhere returns the ids for which pred holds in at least one of
// the runs, in lexicographic order. It is the one shared implementation
// behind every sorted-key helper (per-run and per-set): pred is called
// with each run and each dense id the run has state for.
func sortedIDsWhere(runs []*Run, pred func(r *Run, d int) bool) []faults.ID {
	var out []faults.ID
	var seen map[faults.ID]bool
	for _, r := range runs {
		for d, n := 0, r.universe(); d < n; d++ {
			if !pred(r, d) {
				continue
			}
			id := r.idAt(d)
			if seen[id] {
				continue
			}
			if seen == nil {
				seen = make(map[faults.ID]bool, 8)
			}
			seen[id] = true
			out = append(out, id)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func reachedAt(r *Run, d int) bool  { return d < len(r.reached) && r.reached[d] > 0 }
func coveredAt(r *Run, d int) bool  { return d < len(r.covered) && r.covered[d] }
func loopIterAt(r *Run, d int) bool { return d < len(r.loopIters) && r.loopIters[d] > 0 }

// ActivatedIDs returns the ids of all naturally-activated faults, sorted.
func (r *Run) ActivatedIDs() []faults.ID {
	return sortedIDsWhere([]*Run{r}, reachedAt)
}

// CoveredIDs returns all covered point ids, sorted.
func (r *Run) CoveredIDs() []faults.ID {
	return sortedIDsWhere([]*Run{r}, coveredAt)
}

// LoopIDs returns every loop id that iterated in this run, sorted.
func (r *Run) LoopIDs() []faults.ID {
	return sortedIDsWhere([]*Run{r}, loopIterAt)
}

// Pool recycles Run objects across the seeded repetitions of a campaign.
// All runs drawn from one Pool share the fault space's dense id index;
// Put resets the run and makes it available for the next seed. Pools are
// safe for concurrent use (the harness's worker pool draws from one).
type Pool struct {
	space *faults.Space
	p     sync.Pool
}

// NewPool returns a Run pool bound to a fault space (which may be nil).
func NewPool(space *faults.Space) *Pool {
	pl := &Pool{space: space}
	pl.p.New = func() interface{} { return newRunFor(space) }
	return pl
}

// Get returns an empty Run for one (test, seed) execution.
func (p *Pool) Get(test string, seed int64) *Run {
	r := p.p.Get().(*Run)
	r.Test, r.Seed = test, seed
	return r
}

// Put resets r and recycles it. Callers must not retain any reference
// into the run afterwards (occurrence slices extracted *before* Put, e.g.
// by FCA, stay valid: extraction copies the occurrence values). nil is
// ignored.
func (p *Pool) Put(r *Run) {
	if r == nil {
		return
	}
	r.Reset()
	p.p.Put(r)
}

// Set is the bundle of repeated runs for one (plan, workload) pair: the
// paper executes each profile and injection configuration five times to
// absorb nondeterminism (§4.3).
type Set struct {
	Runs []*Run
}

// Add appends a run to the set.
func (s *Set) Add(r *Run) { s.Runs = append(s.Runs, r) }

// Len returns the number of runs.
func (s *Set) Len() int { return len(s.Runs) }

// ActivationRate returns in how many runs the fault id naturally activated.
func (s *Set) ActivationRate(id faults.ID) int {
	n := 0
	for _, r := range s.Runs {
		if r.Reached(id) > 0 {
			n++
		}
	}
	return n
}

// IterSamples returns the per-run iteration counts for loop id.
func (s *Set) IterSamples(id faults.ID) []float64 {
	out := make([]float64, len(s.Runs))
	for i, r := range s.Runs {
		out[i] = float64(r.LoopIters(id))
	}
	return out
}

// ActivatedAnywhere returns ids activated in at least one run, sorted.
func (s *Set) ActivatedAnywhere() []faults.ID {
	return sortedIDsWhere(s.Runs, reachedAt)
}

// LoopIDs returns every loop id that iterated in at least one run, sorted.
func (s *Set) LoopIDs() []faults.ID {
	return sortedIDsWhere(s.Runs, loopIterAt)
}

// Occurrences returns up to OccCap occurrence states for id pooled across
// the set's runs.
func (s *Set) Occurrences(id faults.ID) []Occurrence {
	var out []Occurrence
	for _, r := range s.Runs {
		for _, o := range r.OccOf(id) {
			if len(out) >= OccCap {
				return out
			}
			out = append(out, o)
		}
	}
	return out
}

// LoopSites returns the recorded calling contexts for loop id across the
// set's runs (at most one per run).
func (s *Set) LoopSites(id faults.ID) []Occurrence {
	var out []Occurrence
	for _, r := range s.Runs {
		if occ, ok := r.LoopSiteOf(id); ok {
			out = append(out, occ)
		}
	}
	return out
}

// InjSites returns the injection-site states of runs where the injection
// fired.
func (s *Set) InjSites() []Occurrence {
	var out []Occurrence
	for _, r := range s.Runs {
		if r.InjFired {
			out = append(out, r.InjSite)
		}
	}
	return out
}

// Coverage returns the union of covered points across runs.
func (s *Set) Coverage() map[faults.ID]bool {
	out := make(map[faults.ID]bool)
	for _, id := range sortedIDsWhere(s.Runs, coveredAt) {
		out[id] = true
	}
	return out
}
