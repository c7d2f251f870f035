// This file holds the resumable allocation state machine behind the
// campaign round loop: Schedule (3PA) and RandomSchedule (§8.2
// baseline) plan waves of (fault, test) runs without executing anything;
// the caller executes each wave and folds the results back in. Planning
// within a phase depends only on the RNG and the used-pair bookkeeping --
// never on execution results -- so a schedule driven wave-by-wave emits
// exactly the runs the blocking Protocol.Run emits. Results are consumed
// at the two phase barriers only: clustering after phase one and SimScore
// computation after phase two.

package alloc

import (
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/cluster"
	"repro/internal/faults"
)

// PlannedRun is one scheduled experiment that has not been executed yet.
type PlannedRun struct {
	Fault faults.ID
	Test  string
	Phase Phase
}

// Planner is the read-only coverage oracle schedules plan against.
type Planner interface {
	// TestsFor lists the workloads whose profile runs cover fault f.
	TestsFor(f faults.ID) []TestInfo
}

// Scheduler is the wave-emitting allocation abstraction the campaign
// round loop drives. The contract is strictly alternating: every wave
// returned by Next must be executed and folded back via Fold before the
// next call to Next.
type Scheduler interface {
	// Next plans the next wave of at most max runs (max <= 0 means no
	// cap: plan to the next decision barrier). An empty wave means the
	// schedule is complete.
	Next(max int) []PlannedRun
	// Fold records the execution results of the wave Next returned, in
	// emission order.
	Fold(recs []RunRecord)
	// Done reports whether the schedule has nothing left to plan.
	Done() bool
	// Budget returns the total experiment budget.
	Budget() int
	// Spent returns the number of runs planned so far.
	Spent() int
	// Result assembles the (possibly partial) allocation result.
	Result() *Result
	// ExportState snapshots the schedule at a wave boundary (every
	// previously emitted run folded). It panics mid-wave, like Next.
	ExportState() *ScheduleState
	// RestoreState rehydrates a freshly constructed schedule of the same
	// configuration to the exported position. The caller separately
	// fast-forwards the schedule's RNG to the draw count recorded
	// alongside the state.
	RestoreState(st *ScheduleState) error
}

// plannerCache memoises TestsFor, which schedules consult repeatedly.
type plannerCache struct {
	p     Planner
	tests map[faults.ID][]TestInfo
}

func newPlannerCache(p Planner) *plannerCache {
	return &plannerCache{p: p, tests: make(map[faults.ID][]TestInfo)}
}

func (c *plannerCache) TestsFor(f faults.ID) []TestInfo {
	if ts, ok := c.tests[f]; ok {
		return ts
	}
	ts := c.p.TestsFor(f)
	c.tests[f] = ts
	return ts
}

// stage is the schedule's position in the 3PA state machine.
type stage int

const (
	stPhase1 stage = iota
	stCluster
	stPhase2
	stScore
	stPhase3
	stDone
)

// ScheduleConfig parameterises a 3PA schedule.
type ScheduleConfig struct {
	Space *faults.Space
	// BudgetFactor scales |F| into the total budget (0 = paper's 4).
	BudgetFactor int
	// Budget, when positive, overrides BudgetFactor x |F| with an
	// absolute budget. A budget below |F| truncates phase one.
	Budget int
	// ClusterThreshold is the hierarchical-clustering cutoff (0 = 0.5).
	ClusterThreshold float64
	// Rng drives the schedule's random choices (required).
	Rng *rand.Rand
	// Phase3Weights optionally replaces the phase-three cluster draw
	// weights. It is consulted at every phase-three wave boundary with
	// the current (partial) result and a fresh copy of the default
	// weights max(Epsilon, 1-SimScore), and returns the weights to draw
	// with -- the adaptive protocol's budget-reallocation hook. It must
	// be deterministic for the campaign's configuration and seed.
	Phase3Weights func(res *Result, defaults []float64) []float64
}

// Schedule is the resumable 3PA state machine. Build one with NewSchedule
// and alternate Next/Fold until Next returns an empty wave.
type Schedule struct {
	cfg     ScheduleConfig
	planner *plannerCache

	res  *Result
	used map[faults.ID]map[string]bool
	// planned counts runs emitted so far; wave holds the emitted,
	// not-yet-folded runs.
	planned int
	wave    []PlannedRun
	st      stage

	p1idx int // cursor into Space.IDs()

	p2quota, p2spent, p2turn int
	p2exhausted              bool

	baseWeights []float64
	p3exhausted bool
}

// NewSchedule builds a 3PA schedule over planner's coverage.
func NewSchedule(cfg ScheduleConfig, planner Planner) *Schedule {
	if cfg.Rng == nil {
		panic("alloc: NewSchedule requires an Rng")
	}
	if cfg.BudgetFactor == 0 {
		cfg.BudgetFactor = 4
	}
	if cfg.ClusterThreshold == 0 {
		cfg.ClusterThreshold = 0.5
	}
	budget := cfg.Budget
	if budget <= 0 {
		budget = cfg.BudgetFactor * cfg.Space.Size()
	}
	return &Schedule{
		cfg:     cfg,
		planner: newPlannerCache(planner),
		used:    make(map[faults.ID]map[string]bool),
		res: &Result{
			ClusterOf: make(map[faults.ID]int),
			Budget:    budget,
		},
	}
}

// Budget returns the total experiment budget.
func (s *Schedule) Budget() int { return s.res.Budget }

// Spent returns the number of runs planned so far.
func (s *Schedule) Spent() int { return s.planned }

// Done reports whether the schedule has nothing left to plan.
func (s *Schedule) Done() bool { return s.st == stDone }

// Phase returns the phase the schedule is currently planning (Phase3
// once done).
func (s *Schedule) Phase() Phase {
	switch s.st {
	case stPhase1:
		return Phase1
	case stCluster, stPhase2:
		return Phase2
	default:
		return Phase3
	}
}

// Result returns the allocation result assembled so far: complete once
// Done, partial (fewer runs, unscored clusters) while the schedule is
// still running or when a campaign stops early.
func (s *Schedule) Result() *Result { return s.res }

// ScoreFunc returns the SimScore lookup over the current partial result
// (1.0 for every fault until phase-two scoring has happened).
func (s *Schedule) ScoreFunc() func(faults.ID) float64 { return s.res.SimScoreOf }

// Next plans the next wave. It advances through decision barriers only
// when every previously emitted run has been folded, so a barrier always
// sees the full interference evidence of the phases before it.
func (s *Schedule) Next(max int) []PlannedRun {
	if len(s.wave) > 0 {
		panic("alloc: Next called before Fold of the previous wave")
	}
	var out []PlannedRun
	for s.st != stDone {
		switch s.st {
		case stPhase1:
			out = s.planPhase1(out, max)
			if s.p1idx >= len(s.cfg.Space.IDs()) || s.planned >= s.res.Budget {
				s.st = stCluster
			}
		case stCluster:
			// DECISION BARRIER 1 (clustering): planning cannot cross into
			// phase two until every phase-one run has been folded -- the
			// interference sets of *all* phase-one experiments feed the
			// causally-equivalent-fault clustering. This and stScore are
			// the only points that bound a wave: within a phase planning
			// depends only on the RNG and used-pair bookkeeping, so Next(0)
			// plans a whole phase as one wave.
			if len(out) > 0 || len(s.res.Runs) < s.planned {
				return s.emit(out)
			}
			s.clusterFaults()
			s.initPhase2()
			s.st = stPhase2
		case stPhase2:
			out = s.planPhase2(out, max)
			if s.p2spent >= s.p2quota || s.p2exhausted {
				s.st = stScore
			}
		case stScore:
			// DECISION BARRIER 2 (scoring): phase-three weights derive from
			// the per-cluster SimScores, which need the complete phase-two
			// interference evidence. Crossing it mutates SimScores and
			// ClusterOf in place: a round's analysis reads them between
			// Fold and the next Next.
			if len(out) > 0 || len(s.res.Runs) < s.planned {
				return s.emit(out)
			}
			s.scoreClusters()
			s.initPhase3()
			s.st = stPhase3
		case stPhase3:
			out = s.planPhase3(out, max)
			if s.planned >= s.res.Budget || s.p3exhausted || len(s.res.Clusters) == 0 {
				s.st = stDone
			}
		}
		if max > 0 && len(out) >= max {
			break
		}
	}
	return s.emit(out)
}

func (s *Schedule) emit(out []PlannedRun) []PlannedRun {
	s.wave = out
	return out
}

// Fold records the executed wave's results, in emission order.
func (s *Schedule) Fold(recs []RunRecord) {
	if len(recs) != len(s.wave) {
		panic(fmt.Sprintf("alloc: Fold of %d records for a wave of %d runs", len(recs), len(s.wave)))
	}
	for i, r := range recs {
		pr := s.wave[i]
		if r.Fault != pr.Fault || r.Test != pr.Test || r.Phase != pr.Phase {
			panic(fmt.Sprintf("alloc: Fold record %d = %s@%s (phase %d), want %s@%s (phase %d)",
				i, r.Fault, r.Test, r.Phase, pr.Fault, pr.Test, pr.Phase))
		}
	}
	s.res.Runs = append(s.res.Runs, recs...)
	s.wave = nil
}

// plan emits one run, recording the pair as used so later planning in the
// same phase never repeats it.
func (s *Schedule) plan(out []PlannedRun, f faults.ID, test string, phase Phase) []PlannedRun {
	if s.used[f] == nil {
		s.used[f] = make(map[string]bool)
	}
	s.used[f][test] = true
	s.planned++
	return append(out, PlannedRun{Fault: f, Test: test, Phase: phase})
}

// freshTest returns an unused covering workload for f, chosen uniformly at
// random; ok is false when all covering workloads are exhausted.
func (s *Schedule) freshTest(f faults.ID) (string, bool) {
	var candidates []string
	for _, ti := range s.planner.TestsFor(f) {
		if !s.used[f][ti.Name] {
			candidates = append(candidates, ti.Name)
		}
	}
	if len(candidates) == 0 {
		return "", false
	}
	return candidates[s.cfg.Rng.Intn(len(candidates))], true
}

// clusterExhausted reports whether every (fault, test) pair in the cluster
// has been used.
func (s *Schedule) clusterExhausted(members []faults.ID) bool {
	for _, f := range members {
		if s.hasFreshTest(f) {
			return false
		}
	}
	return true
}

func (s *Schedule) hasFreshTest(f faults.ID) bool {
	for _, ti := range s.planner.TestsFor(f) {
		if !s.used[f][ti.Name] {
			return true
		}
	}
	return false
}

func (s *Schedule) allExhausted() bool {
	for gi := range s.res.Clusters {
		if !s.clusterExhausted(s.res.Clusters[gi]) {
			return false
		}
	}
	return true
}

// --- phase one ---

// planPhase1 injects each fault once, into the covering workload with the
// highest coverage, until the fault list or the budget runs out.
func (s *Schedule) planPhase1(out []PlannedRun, max int) []PlannedRun {
	ids := s.cfg.Space.IDs()
	for ; s.p1idx < len(ids) && s.planned < s.res.Budget; s.p1idx++ {
		if max > 0 && len(out) >= max {
			return out
		}
		f := ids[s.p1idx]
		tests := s.planner.TestsFor(f)
		if len(tests) == 0 {
			continue // unreachable fault: no workload covers it
		}
		best := tests[0]
		for _, ti := range tests[1:] {
			if ti.Coverage > best.Coverage {
				best = ti
			}
		}
		out = s.plan(out, f, best.Name, Phase1)
	}
	return out
}

// --- clustering barrier ---

// clusterFaults groups faults by phase-one interference similarity.
func (s *Schedule) clusterFaults() {
	var injected []faults.ID
	var sets [][]faults.ID
	for _, r := range s.res.Runs {
		injected = append(injected, r.Fault)
		sets = append(sets, r.Intf)
	}
	if len(injected) == 0 {
		return
	}
	idf := cluster.TrainIDF(sets)
	vecs := make([]cluster.Vector, len(sets))
	for i, set := range sets {
		vecs[i] = idf.Vectorize(set)
	}
	groups := cluster.Hierarchical(len(injected), func(i, j int) float64 {
		return cluster.CosineDistance(vecs[i], vecs[j])
	}, s.cfg.ClusterThreshold)
	for gi, g := range groups {
		var members []faults.ID
		for _, idx := range g {
			members = append(members, injected[idx])
			s.res.ClusterOf[injected[idx]] = gi
		}
		s.res.Clusters = append(s.res.Clusters, members)
	}
}

// --- phase two ---

func (s *Schedule) initPhase2() {
	if len(s.res.Clusters) == 0 {
		s.p2quota = 0
		return
	}
	s.p2quota = s.res.Budget/2 + s.res.Budget/4 - s.planned // through 75% of budget
	if s.p2quota < 0 {
		s.p2quota = 0
	}
}

// planPhase2 spends half the budget round-robin across clusters, injecting
// a random member into a fresh workload each turn; quota of exhausted
// clusters transfers randomly to a larger cluster.
func (s *Schedule) planPhase2(out []PlannedRun, max int) []PlannedRun {
	for s.p2spent < s.p2quota {
		if max > 0 && len(out) >= max {
			return out
		}
		if s.allExhausted() {
			s.p2exhausted = true
			return out
		}
		gi := s.p2turn % len(s.res.Clusters)
		s.p2turn++
		next, ok := s.tryClusterInjection(out, gi, Phase2)
		if !ok {
			// Transfer to a random larger cluster with capacity.
			if ti, tok := s.largerClusterWithCapacity(gi); tok {
				if next, ok = s.tryClusterInjection(out, ti, Phase2); ok {
					out = next
					s.p2spent++
				}
			}
			continue
		}
		out = next
		s.p2spent++
	}
	return out
}

// tryClusterInjection picks a random member with a fresh workload and
// plans it; ok is false when the cluster is exhausted.
func (s *Schedule) tryClusterInjection(out []PlannedRun, gi int, phase Phase) ([]PlannedRun, bool) {
	members := s.res.Clusters[gi]
	// Random starting offset, then scan for a member with capacity.
	start := s.cfg.Rng.Intn(len(members))
	for k := 0; k < len(members); k++ {
		f := members[(start+k)%len(members)]
		if test, ok := s.freshTest(f); ok {
			return s.plan(out, f, test, phase), true
		}
	}
	return out, false
}

// largerClusterWithCapacity picks uniformly among clusters strictly larger
// than gi that still have unused pairs; falls back to any cluster with
// capacity.
func (s *Schedule) largerClusterWithCapacity(gi int) (int, bool) {
	var larger, any []int
	for i, members := range s.res.Clusters {
		if i == gi || s.clusterExhausted(members) {
			continue
		}
		any = append(any, i)
		if len(members) > len(s.res.Clusters[gi]) {
			larger = append(larger, i)
		}
	}
	pool := larger
	if len(pool) == 0 {
		pool = any
	}
	if len(pool) == 0 {
		return 0, false
	}
	return pool[s.cfg.Rng.Intn(len(pool))], true
}

// --- scoring barrier ---

// scoreClusters trains the second IDF vectorizer on phase-one and
// phase-two data and computes each cluster's SimScore (§A.3).
func (s *Schedule) scoreClusters() {
	var sets [][]faults.ID
	for _, r := range s.res.Runs {
		sets = append(sets, r.Intf)
	}
	idf := cluster.TrainIDF(sets)
	s.res.SimScores = make([]float64, len(s.res.Clusters))
	for gi, members := range s.res.Clusters {
		inCluster := make(map[faults.ID]bool, len(members))
		for _, f := range members {
			inCluster[f] = true
		}
		byFault := make(map[faults.ID][]cluster.Vector)
		for _, r := range s.res.Runs {
			if inCluster[r.Fault] {
				byFault[r.Fault] = append(byFault[r.Fault], idf.Vectorize(r.Intf))
			}
		}
		s.res.SimScores[gi] = cluster.SimScore(byFault)
	}
}

// --- phase three ---

func (s *Schedule) initPhase3() {
	s.baseWeights = make([]float64, len(s.res.Clusters))
	for gi := range s.res.Clusters {
		w := 1 - s.res.SimScores[gi]
		if w < Epsilon {
			w = Epsilon
		}
		s.baseWeights[gi] = w
	}
}

// phase3Weights resolves the draw weights for the current wave: the
// default max(Epsilon, 1-SimScore) formula, or whatever the reallocation
// hook returns for it.
func (s *Schedule) phase3Weights() []float64 {
	if s.cfg.Phase3Weights == nil {
		return s.baseWeights
	}
	return s.cfg.Phase3Weights(s.res, append([]float64(nil), s.baseWeights...))
}

// planPhase3 spends the remaining budget with weighted random cluster
// selection; quota from exhausted clusters transfers to clusters with
// smaller weight.
func (s *Schedule) planPhase3(out []PlannedRun, max int) []PlannedRun {
	if len(s.res.Clusters) == 0 {
		return out
	}
	weights := s.phase3Weights()
	for s.planned < s.res.Budget {
		if max > 0 && len(out) >= max {
			return out
		}
		if s.allExhausted() {
			s.p3exhausted = true
			return out
		}
		gi := s.weightedPick(weights)
		next, ok := s.tryClusterInjection(out, gi, Phase3)
		if ok {
			out = next
			continue
		}
		// Exhausted: transfer to a smaller-weight cluster with capacity.
		if ti, tok := s.smallerWeightWithCapacity(weights, gi); tok {
			out, _ = s.tryClusterInjection(out, ti, Phase3)
		}
	}
	return out
}

func (s *Schedule) weightedPick(weights []float64) int {
	total := 0.0
	for _, w := range weights {
		total += w
	}
	x := s.cfg.Rng.Float64() * total
	for i, w := range weights {
		x -= w
		if x <= 0 {
			return i
		}
	}
	return len(weights) - 1
}

func (s *Schedule) smallerWeightWithCapacity(weights []float64, gi int) (int, bool) {
	type cand struct {
		idx int
		w   float64
	}
	var smaller, any []cand
	for i, members := range s.res.Clusters {
		if i == gi || s.clusterExhausted(members) {
			continue
		}
		c := cand{i, weights[i]}
		any = append(any, c)
		if weights[i] < weights[gi] {
			smaller = append(smaller, c)
		}
	}
	pool := smaller
	if len(pool) == 0 {
		pool = any
	}
	if len(pool) == 0 {
		return 0, false
	}
	sort.Slice(pool, func(a, b int) bool { return pool[a].w < pool[b].w })
	return pool[0].idx, true
}

// --- random baseline schedule (§8.2) ---

// RandomSchedule emits the §8.2 random-allocation schedule in waves: the
// pool of (fault, covering-test) pairs is shuffled once at construction,
// so wave-driven and blocking executions produce identical run lists.
type RandomSchedule struct {
	pool []PlannedRun
	next int
	wave []PlannedRun
	res  *Result
}

// NewRandomSchedule precomputes the shuffled random schedule.
func NewRandomSchedule(space *faults.Space, budgetFactor int, rng *rand.Rand, planner Planner) *RandomSchedule {
	if budgetFactor == 0 {
		budgetFactor = 4
	}
	cache := newPlannerCache(planner)
	var pool []PlannedRun
	for _, f := range space.IDs() {
		for _, ti := range cache.TestsFor(f) {
			pool = append(pool, PlannedRun{Fault: f, Test: ti.Name})
		}
	}
	budget := budgetFactor * space.Size()
	if budget > len(pool) {
		budget = len(pool)
	}
	rng.Shuffle(len(pool), func(i, j int) { pool[i], pool[j] = pool[j], pool[i] })
	return &RandomSchedule{pool: pool[:budget], res: &Result{Budget: budget}}
}

func (s *RandomSchedule) Next(max int) []PlannedRun {
	if len(s.wave) > 0 {
		panic("alloc: Next called before Fold of the previous wave")
	}
	hi := len(s.pool)
	if max > 0 && s.next+max < hi {
		hi = s.next + max
	}
	s.wave = s.pool[s.next:hi]
	s.next = hi
	return s.wave
}

func (s *RandomSchedule) Fold(recs []RunRecord) {
	if len(recs) != len(s.wave) {
		panic(fmt.Sprintf("alloc: Fold of %d records for a wave of %d runs", len(recs), len(s.wave)))
	}
	s.res.Runs = append(s.res.Runs, recs...)
	s.wave = nil
}

func (s *RandomSchedule) Done() bool      { return s.next >= len(s.pool) }
func (s *RandomSchedule) Budget() int     { return s.res.Budget }
func (s *RandomSchedule) Spent() int      { return s.next }
func (s *RandomSchedule) Result() *Result { return s.res }
