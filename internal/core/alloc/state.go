// This file makes the allocation schedules checkpointable: a schedule's
// planning position can be exported at any wave boundary as a plain
// JSON-able ScheduleState and restored into a freshly constructed
// schedule of the same configuration, which then plans exactly the runs
// the original would have planned next. Together with CountedSource --
// a rand.Source64 that counts state advances so a resumed campaign can
// fast-forward its RNG to the checkpointed position -- this is the
// alloc-layer half of crash-safe campaign resume: a restored schedule
// driven by a fast-forwarded RNG is byte-identical to one that was
// never interrupted.

package alloc

import (
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/faults"
)

// CountedSource is a rand.Source64 wrapping the standard library source
// that counts state advances. Every Int63 or Uint64 call advances the
// underlying generator by exactly one state step, so Draws() identifies
// the generator's position and FastForwardTo replays a fresh source to
// the same position -- regardless of which mix of rand.Rand methods
// consumed the stream. The wrapper is stream-transparent: a rand.Rand
// over a CountedSource draws the same values as one over
// rand.NewSource(seed) directly.
type CountedSource struct {
	src rand.Source64
	n   int64
}

// NewCountedSource returns a counting source seeded with seed.
func NewCountedSource(seed int64) *CountedSource {
	return &CountedSource{src: rand.NewSource(seed).(rand.Source64)}
}

func (c *CountedSource) Int63() int64 {
	c.n++
	return c.src.Int63()
}

func (c *CountedSource) Uint64() uint64 {
	c.n++
	return c.src.Uint64()
}

func (c *CountedSource) Seed(seed int64) {
	c.src.Seed(seed)
	c.n = 0
}

// Draws returns the number of state advances consumed so far.
func (c *CountedSource) Draws() int64 { return c.n }

// FastForwardTo advances the source until exactly n states have been
// consumed. It fails if the source is already past n: positions only
// move forward.
func (c *CountedSource) FastForwardTo(n int64) error {
	if n < c.n {
		return fmt.Errorf("alloc: cannot rewind RNG from %d to %d draws", c.n, n)
	}
	for c.n < n {
		c.n++
		c.src.Uint64()
	}
	return nil
}

// UsedPairs lists the workloads already paired with one fault, for the
// schedule's never-repeat bookkeeping. Tests are sorted for stable
// serialization.
type UsedPairs struct {
	Fault string   `json:"fault"`
	Tests []string `json:"tests"`
}

// RunState is the JSON form of one folded RunRecord.
type RunState struct {
	Fault string   `json:"fault"`
	Test  string   `json:"test"`
	Phase int      `json:"phase"`
	Intf  []string `json:"intf,omitempty"`
}

// ScheduleState is a schedule's complete planning position at a wave
// boundary: the state-machine stage and per-phase cursors, the used-pair
// bookkeeping, and the folded result so far (clusters, scores, run
// records -- the two phase barriers consume them). It is pure data,
// stable under JSON round trips.
type ScheduleState struct {
	// Kind is "3pa" (Schedule) or "random" (RandomSchedule).
	Kind    string `json:"kind"`
	Stage   int    `json:"stage,omitempty"`
	Planned int    `json:"planned"`
	Budget  int    `json:"budget"`

	P1Idx       int       `json:"p1Idx,omitempty"`
	P2Quota     int       `json:"p2Quota,omitempty"`
	P2Spent     int       `json:"p2Spent,omitempty"`
	P2Turn      int       `json:"p2Turn,omitempty"`
	P2Exhausted bool      `json:"p2Exhausted,omitempty"`
	P3Exhausted bool      `json:"p3Exhausted,omitempty"`
	BaseWeights []float64 `json:"baseWeights,omitempty"`

	Used      []UsedPairs `json:"used,omitempty"`
	Clusters  [][]string  `json:"clusters,omitempty"`
	SimScores []float64   `json:"simScores,omitempty"`
	Runs      []RunState  `json:"runs,omitempty"`
}

func runStateOf(r RunRecord) RunState {
	out := RunState{Fault: string(r.Fault), Test: r.Test, Phase: int(r.Phase)}
	for _, f := range r.Intf {
		out.Intf = append(out.Intf, string(f))
	}
	return out
}

func runRecordOf(r RunState) RunRecord {
	out := RunRecord{Fault: faults.ID(r.Fault), Test: r.Test, Phase: Phase(r.Phase)}
	for _, f := range r.Intf {
		out.Intf = append(out.Intf, faults.ID(f))
	}
	return out
}

// ExportState snapshots the 3PA schedule's planning position.
func (s *Schedule) ExportState() *ScheduleState {
	if len(s.wave) > 0 {
		panic("alloc: ExportState with an unfolded wave in flight")
	}
	st := &ScheduleState{
		Kind:        "3pa",
		Stage:       int(s.st),
		Planned:     s.planned,
		Budget:      s.res.Budget,
		P1Idx:       s.p1idx,
		P2Quota:     s.p2quota,
		P2Spent:     s.p2spent,
		P2Turn:      s.p2turn,
		P2Exhausted: s.p2exhausted,
		P3Exhausted: s.p3exhausted,
		BaseWeights: append([]float64(nil), s.baseWeights...),
		SimScores:   append([]float64(nil), s.res.SimScores...),
	}
	var fs []string
	for f := range s.used {
		fs = append(fs, string(f))
	}
	sort.Strings(fs)
	for _, f := range fs {
		var ts []string
		for t := range s.used[faults.ID(f)] {
			ts = append(ts, t)
		}
		sort.Strings(ts)
		st.Used = append(st.Used, UsedPairs{Fault: f, Tests: ts})
	}
	for _, members := range s.res.Clusters {
		g := make([]string, len(members))
		for i, f := range members {
			g[i] = string(f)
		}
		st.Clusters = append(st.Clusters, g)
	}
	for _, r := range s.res.Runs {
		st.Runs = append(st.Runs, runStateOf(r))
	}
	return st
}

// RestoreState rehydrates a freshly built 3PA schedule to st's position.
func (s *Schedule) RestoreState(st *ScheduleState) error {
	if st == nil || st.Kind != "3pa" {
		return fmt.Errorf("alloc: schedule state is not a 3pa checkpoint")
	}
	if s.planned != 0 || len(s.res.Runs) != 0 {
		return fmt.Errorf("alloc: RestoreState on a schedule that already planned runs")
	}
	if st.Stage < int(stPhase1) || st.Stage > int(stDone) {
		return fmt.Errorf("alloc: schedule state has invalid stage %d", st.Stage)
	}
	if st.Budget != s.res.Budget {
		return fmt.Errorf("alloc: checkpoint budget %d != configured budget %d", st.Budget, s.res.Budget)
	}
	if st.Planned != len(st.Runs) {
		return fmt.Errorf("alloc: checkpoint planned %d runs but folded %d", st.Planned, len(st.Runs))
	}
	s.st = stage(st.Stage)
	s.planned = st.Planned
	s.p1idx = st.P1Idx
	s.p2quota, s.p2spent, s.p2turn = st.P2Quota, st.P2Spent, st.P2Turn
	s.p2exhausted, s.p3exhausted = st.P2Exhausted, st.P3Exhausted
	s.baseWeights = append([]float64(nil), st.BaseWeights...)
	s.used = make(map[faults.ID]map[string]bool, len(st.Used))
	for _, u := range st.Used {
		mm := make(map[string]bool, len(u.Tests))
		for _, t := range u.Tests {
			mm[t] = true
		}
		s.used[faults.ID(u.Fault)] = mm
	}
	s.res.Clusters = nil
	s.res.ClusterOf = make(map[faults.ID]int)
	for gi, g := range st.Clusters {
		members := make([]faults.ID, len(g))
		for i, f := range g {
			members[i] = faults.ID(f)
			s.res.ClusterOf[faults.ID(f)] = gi
		}
		s.res.Clusters = append(s.res.Clusters, members)
	}
	s.res.SimScores = append([]float64(nil), st.SimScores...)
	s.res.Runs = make([]RunRecord, len(st.Runs))
	for i, r := range st.Runs {
		s.res.Runs[i] = runRecordOf(r)
	}
	return nil
}

// ExportState snapshots the random schedule's cursor.
func (s *RandomSchedule) ExportState() *ScheduleState {
	if len(s.wave) > 0 {
		panic("alloc: ExportState with an unfolded wave in flight")
	}
	st := &ScheduleState{Kind: "random", Planned: s.next, Budget: s.res.Budget}
	for _, r := range s.res.Runs {
		st.Runs = append(st.Runs, runStateOf(r))
	}
	return st
}

// RestoreState rehydrates a freshly built random schedule. The pool is
// re-shuffled identically at construction (same seed, same space), so
// only the cursor and the folded records need restoring.
func (s *RandomSchedule) RestoreState(st *ScheduleState) error {
	if st == nil || st.Kind != "random" {
		return fmt.Errorf("alloc: schedule state is not a random checkpoint")
	}
	if s.next != 0 {
		return fmt.Errorf("alloc: RestoreState on a schedule that already planned runs")
	}
	if st.Budget != s.res.Budget {
		return fmt.Errorf("alloc: checkpoint budget %d != configured budget %d", st.Budget, s.res.Budget)
	}
	if st.Planned < 0 || st.Planned > len(s.pool) {
		return fmt.Errorf("alloc: checkpoint cursor %d outside pool of %d", st.Planned, len(s.pool))
	}
	if st.Planned != len(st.Runs) {
		return fmt.Errorf("alloc: checkpoint planned %d runs but folded %d", st.Planned, len(st.Runs))
	}
	s.next = st.Planned
	s.res.Runs = make([]RunRecord, len(st.Runs))
	for i, r := range st.Runs {
		s.res.Runs[i] = runRecordOf(r)
	}
	return nil
}
