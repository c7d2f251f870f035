package alloc

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/faults"
)

// driveWaves runs a schedule to completion in fixed-size waves against a
// scripted executor, returning the result.
func driveWaves(t *testing.T, s Scheduler, ex Executor, waveSize int) *Result {
	t.Helper()
	for i := 0; ; i++ {
		wave := s.Next(waveSize)
		if len(wave) == 0 {
			if !s.Done() {
				t.Fatal("empty wave from an unfinished schedule")
			}
			return s.Result()
		}
		if waveSize > 0 && len(wave) > waveSize {
			t.Fatalf("wave %d has %d runs, cap %d", i, len(wave), waveSize)
		}
		recs := make([]RunRecord, len(wave))
		for j, pr := range wave {
			recs[j] = RunRecord{Fault: pr.Fault, Test: pr.Test, Phase: pr.Phase,
				Intf: ex.Execute(pr.Fault, pr.Test)}
		}
		s.Fold(recs)
	}
}

func scheduleFor(space *faults.Space, seed int64, planner Planner) *Schedule {
	return NewSchedule(ScheduleConfig{Space: space, Rng: rand.New(rand.NewSource(seed))}, planner)
}

// TestWaveScheduleMatchesBlockingProtocol pins the tentpole equivalence:
// the same 3PA schedule, emitted in waves of any size, executes exactly
// the runs the blocking Protocol.Run executes -- same pairs, same phases,
// same order.
func TestWaveScheduleMatchesBlockingProtocol(t *testing.T) {
	intf := func(f faults.ID, test string) []faults.ID {
		if f < "s.f04" {
			return []faults.ID{"s.gA"}
		}
		return []faults.ID{faults.ID("x." + test)}
	}
	for _, waveSize := range []int{1, 3, 7, 100} {
		space := mkSpace(8)
		ref := run3PA(t, space, uniformExec(t, space, []string{"t1", "t2", "t3", "t4"}, intf), 21)

		ex := uniformExec(t, space, []string{"t1", "t2", "t3", "t4"}, intf)
		got := driveWaves(t, scheduleFor(space, 21, ex), ex, waveSize)

		if !reflect.DeepEqual(got.Runs, ref.Runs) {
			t.Fatalf("wave size %d: schedule diverges from blocking protocol\ngot:  %v\nwant: %v",
				waveSize, got.Runs, ref.Runs)
		}
		if !reflect.DeepEqual(got.Clusters, ref.Clusters) || !reflect.DeepEqual(got.SimScores, ref.SimScores) {
			t.Fatalf("wave size %d: clustering/scoring diverges", waveSize)
		}
	}
}

// TestBudgetSmallerThanFaultCount: an absolute budget below |F| truncates
// phase one -- later faults are never injected -- and leaves nothing for
// phases two and three.
func TestBudgetSmallerThanFaultCount(t *testing.T) {
	space := mkSpace(8)
	ex := uniformExec(t, space, []string{"t1", "t2"}, func(f faults.ID, test string) []faults.ID {
		return []faults.ID{f}
	})
	p := &Protocol{Space: space, Budget: 5, Rng: rand.New(rand.NewSource(3))}
	res := p.Run(ex)
	if res.Budget != 5 {
		t.Fatalf("budget = %d, want the absolute override 5", res.Budget)
	}
	if len(res.Runs) != 5 {
		t.Fatalf("runs = %d, want exactly the budget", len(res.Runs))
	}
	for i, r := range res.Runs {
		if r.Phase != Phase1 {
			t.Fatalf("run %d in phase %d, want all budget consumed by phase 1", i, r.Phase)
		}
		if want := space.IDs()[i]; r.Fault != want {
			t.Fatalf("run %d injected %s, want space order %s", i, r.Fault, want)
		}
	}
}

// TestSingleClusterTransferPaths: with every fault in one cluster there
// is no transfer target, so exhaustion must terminate phases two and
// three instead of looping on failed transfers.
func TestSingleClusterTransferPaths(t *testing.T) {
	space := mkSpace(3)
	// Two tests per fault: 6 pairs total; budget 4x3 = 12 >> pool, so both
	// later phases hit cluster exhaustion with no sibling to transfer to.
	ex := uniformExec(t, space, []string{"t1", "t2"}, func(f faults.ID, test string) []faults.ID {
		return nil // identical interference: one cluster
	})
	res := run3PA(t, space, ex, 5)
	if len(res.Clusters) != 1 {
		t.Fatalf("clusters = %d, want 1", len(res.Clusters))
	}
	if len(res.Runs) != 6 {
		t.Fatalf("runs = %d, want the whole 6-pair pool", len(res.Runs))
	}
	seen := map[string]bool{}
	for _, r := range res.Runs {
		seen[string(r.Fault)+"@"+r.Test] = true
	}
	if len(seen) != 6 {
		t.Fatalf("distinct pairs = %d, want 6", len(seen))
	}
}

// TestRandomProtocolDeterministicForFixedSeed pins the §8.2 baseline:
// identical seeds yield identical schedules, wave-driven or blocking.
func TestRandomProtocolDeterministicForFixedSeed(t *testing.T) {
	mk := func() (*faults.Space, *fakeExec) {
		space := mkSpace(6)
		return space, uniformExec(t, space, []string{"t1", "t2", "t3"}, func(f faults.ID, test string) []faults.ID {
			return []faults.ID{faults.ID("x." + test)}
		})
	}
	space, ex := mk()
	a := driveWaves(t, NewRandomSchedule(space, 2, rand.New(rand.NewSource(17)), ex), ex, 0).Runs
	space, ex = mk()
	b := driveWaves(t, NewRandomSchedule(space, 2, rand.New(rand.NewSource(17)), ex), ex, 0).Runs
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("random schedules diverge for the same seed:\n%v\n%v", a, b)
	}
	space, ex = mk()
	waved := driveWaves(t, NewRandomSchedule(space, 2, rand.New(rand.NewSource(17)), ex), ex, 4)
	if !reflect.DeepEqual(waved.Runs, a) {
		t.Fatalf("wave-driven random schedule diverges from blocking Random:\n%v\n%v", waved.Runs, a)
	}
}

// TestPhase3WeightHookSteersDraws: a reallocation hook that zeroes every
// cluster but one must concentrate phase-three draws on it.
func TestPhase3WeightHookSteersDraws(t *testing.T) {
	space := mkSpace(8)
	manyTests := []string{"t1", "t2", "t3", "t4", "t5", "t6", "t7", "t8"}
	intf := func(f faults.ID, test string) []faults.ID {
		if f < "s.f04" {
			return []faults.ID{"s.stable"}
		}
		return []faults.ID{faults.ID("s.dep." + test)}
	}
	ex := uniformExec(t, space, manyTests, intf)
	sched := NewSchedule(ScheduleConfig{
		Space: space,
		Rng:   rand.New(rand.NewSource(5)),
		Phase3Weights: func(res *Result, defaults []float64) []float64 {
			// Force everything onto the cluster of s.f00.
			target := res.ClusterOf["s.f00"]
			for i := range defaults {
				if i != target {
					defaults[i] = 0
				} else {
					defaults[i] = 1
				}
			}
			return defaults
		},
	}, ex)
	res := driveWaves(t, sched, ex, 0)
	target := res.ClusterOf["s.f00"]
	for _, r := range res.Runs {
		if r.Phase == Phase3 && res.ClusterOf[r.Fault] != target {
			// Transfers may still move budget once the target exhausts; the
			// target cluster has 4 faults x 8 tests = 32 pairs, far more
			// than the remaining budget, so it never exhausts here.
			t.Fatalf("phase-3 run %s@%s outside the forced cluster", r.Fault, r.Test)
		}
	}
	n3 := 0
	for _, r := range res.Runs {
		if r.Phase == Phase3 {
			n3++
		}
	}
	if n3 == 0 {
		t.Fatal("no phase-3 runs planned")
	}
}

// TestScheduleFoldValidation: folding records that do not match the
// emitted wave must panic rather than silently corrupt the result.
func TestScheduleFoldValidation(t *testing.T) {
	space := mkSpace(2)
	ex := uniformExec(t, space, []string{"t1"}, func(faults.ID, string) []faults.ID { return nil })
	s := scheduleFor(space, 1, ex)
	wave := s.Next(1)
	if len(wave) != 1 {
		t.Fatalf("wave = %v", wave)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("mismatched Fold did not panic")
		}
	}()
	s.Fold([]RunRecord{{Fault: "bogus", Test: "t1", Phase: Phase1}})
}

// TestPartialResultSimScoresDefault: before phase-two scoring a partial
// result scores every fault 1.0 (no cluster information yet).
func TestPartialResultSimScoresDefault(t *testing.T) {
	space := mkSpace(4)
	ex := uniformExec(t, space, []string{"t1", "t2"}, func(f faults.ID, test string) []faults.ID {
		return []faults.ID{f}
	})
	s := scheduleFor(space, 9, ex)
	wave := s.Next(2) // inside phase 1
	if len(wave) != 2 || s.Done() {
		t.Fatalf("unexpected first wave %v (done=%v)", wave, s.Done())
	}
	if got := s.Result().SimScoreOf(space.IDs()[0]); got != 1 {
		t.Fatalf("partial SimScore = %v, want 1", got)
	}
	if s.Phase() != Phase1 {
		t.Fatalf("phase = %v, want Phase1", s.Phase())
	}
	recs := make([]RunRecord, len(wave))
	for i, pr := range wave {
		recs[i] = RunRecord{Fault: pr.Fault, Test: pr.Test, Phase: pr.Phase,
			Intf: ex.Execute(pr.Fault, pr.Test)}
	}
	s.Fold(recs)
	if s.Spent() != 2 {
		t.Fatalf("spent = %d, want 2", s.Spent())
	}
}
