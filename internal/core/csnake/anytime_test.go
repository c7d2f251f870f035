package csnake

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"repro/internal/core/alloc"
	"repro/internal/core/beam"
	"repro/internal/harness"
	"repro/internal/systems/kvstore"
	"repro/internal/systems/metastore"
	"repro/internal/systems/sysreg"
)

// assertReportsIdentical compares the campaign outputs that must be byte
// identical between pipelines.
func assertReportsIdentical(t *testing.T, tag string, a, b *Report) {
	t.Helper()
	if a.Sims != b.Sims {
		t.Fatalf("%s: sim counts diverge: %d vs %d", tag, a.Sims, b.Sims)
	}
	if !reflect.DeepEqual(a.Runs, b.Runs) {
		t.Fatalf("%s: run schedules diverge", tag)
	}
	if !reflect.DeepEqual(a.Edges, b.Edges) {
		t.Fatalf("%s: edge sets diverge", tag)
	}
	if fmt.Sprintf("%+v", a.Cycles) != fmt.Sprintf("%+v", b.Cycles) {
		t.Fatalf("%s: cycles diverge:\n%+v\n%+v", tag, a.Cycles, b.Cycles)
	}
	if fmt.Sprintf("%+v", a.CycleClusters) != fmt.Sprintf("%+v", b.CycleClusters) {
		t.Fatalf("%s: cycle clusters diverge", tag)
	}
}

// TestAnytimeMatchesBatchCampaign: a full anytime campaign (no early
// stop) must finish with exactly the batch campaign's report -- same
// runs, edges, cycles, clusters -- serial and parallel, and for every
// wave granularity.
func TestAnytimeMatchesBatchCampaign(t *testing.T) {
	batch, err := NewCampaign(tinySystem{}, tinyOpts()...).Run()
	if err != nil {
		t.Fatal(err)
	}
	for _, waveSize := range []int{1, 3, 100} {
		for _, par := range []int{1, 8} {
			rep, err := NewCampaign(tinySystem{},
				append(tinyOpts(), WithAnytime(), WithWaveSize(waveSize), WithParallelism(par))...).Run()
			if err != nil {
				t.Fatal(err)
			}
			tag := fmt.Sprintf("wave=%d par=%d", waveSize, par)
			assertReportsIdentical(t, tag, rep, batch)
			if len(rep.Rounds) == 0 {
				t.Fatalf("%s: anytime campaign recorded no rounds", tag)
			}
			last := rep.Rounds[len(rep.Rounds)-1]
			if last.Spent != len(rep.Runs) || last.Budget != batch.Alloc.Budget {
				t.Fatalf("%s: last round spent %d/%d, want %d/%d",
					tag, last.Spent, last.Budget, len(rep.Runs), batch.Alloc.Budget)
			}
			if rep.EarlyStopped {
				t.Fatalf("%s: full campaign claims early stop", tag)
			}
		}
	}
}

// TestAnytimeRandomProtocolMatchesBatch: the §8.2 baseline through the
// round pipeline equals its batch run too.
func TestAnytimeRandomProtocolMatchesBatch(t *testing.T) {
	opts := append(tinyOpts(), WithProtocol(ProtocolRandom))
	batch, err := NewCampaign(tinySystem{}, opts...).Run()
	if err != nil {
		t.Fatal(err)
	}
	rep, err := NewCampaign(tinySystem{}, append(opts, WithAnytime(), WithWaveSize(2))...).Run()
	if err != nil {
		t.Fatal(err)
	}
	assertReportsIdentical(t, "random", rep, batch)
	if rep.Alloc != nil {
		t.Fatal("random anytime campaign produced a 3PA result")
	}
}

// TestAdaptiveProtocolDeterministicSerialParallel: the near-cycle
// reallocation must stay a pure function of the campaign seed.
func TestAdaptiveProtocolDeterministicSerialParallel(t *testing.T) {
	runAt := func(par int) *Report {
		rep, err := NewCampaign(tinySystem{},
			append(tinyOpts(), WithProtocol(ProtocolAdaptive), WithParallelism(par))...).Run()
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	serial := runAt(1)
	parallel := runAt(8)
	assertReportsIdentical(t, "adaptive", serial, parallel)
	if len(serial.Rounds) == 0 {
		t.Fatal("adaptive campaign recorded no rounds")
	}
	// The tiny system has only 2 faults x 2 workloads = 4 pairs: the
	// schedule must exhaust the whole pool (the budget exceeds it).
	if serial.Alloc == nil || len(serial.Runs) != 4 {
		t.Fatalf("adaptive campaign spent %d of %d, want the exhausted 4-pair pool",
			len(serial.Runs), serial.Alloc.Budget)
	}
}

// TestRoundObserverStreamsRounds: the optional observer extension
// receives one event per round, in order, matching Report.Rounds.
func TestRoundObserverStreamsRounds(t *testing.T) {
	rec := &roundRecorder{}
	rep, err := NewCampaign(tinySystem{},
		append(tinyOpts(), WithAnytime(), WithObserver(rec))...).Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.rounds) != len(rep.Rounds) {
		t.Fatalf("observer saw %d rounds, report has %d", len(rec.rounds), len(rep.Rounds))
	}
	for i, r := range rec.rounds {
		if r.Round != i+1 || r.Round != rep.Rounds[i].Round || r.Spent != rep.Rounds[i].Spent {
			t.Fatalf("round event %d = %+v, report %+v", i, r, rep.Rounds[i])
		}
	}

	// A batch campaign runs the same loop but seals no rounds: the same
	// observer hears nothing and the report carries no trajectory.
	for _, proto := range []ProtocolKind{Protocol3PA, ProtocolRandom} {
		rec := &roundRecorder{}
		rep, err := NewCampaign(tinySystem{},
			append(tinyOpts(), WithProtocol(proto), WithObserver(rec))...).Run()
		if err != nil {
			t.Fatal(err)
		}
		if len(rec.rounds) != 0 || rep.Rounds != nil {
			t.Fatalf("protocol %d: batch campaign sealed rounds: %d events, Report.Rounds = %v",
				proto, len(rec.rounds), rep.Rounds)
		}
		if len(rep.Runs) == 0 {
			t.Fatalf("protocol %d: batch campaign executed nothing", proto)
		}
	}
}

type roundRecorder struct {
	NopObserver
	rounds []Round
}

func (r *roundRecorder) RoundCompleted(round Round) { r.rounds = append(r.rounds, round) }

// TestIncrementalSearchEquivalentOnRealCampaign is the satellite
// fuzz-style regression: a real-system campaign driven round by round,
// with the incremental search compared against a full SearchGraph after
// every single delta.
func TestIncrementalSearchEquivalentOnRealCampaign(t *testing.T) {
	if testing.Short() {
		t.Skip("real-system campaign skipped in -short mode")
	}
	sys := kvstore.New()
	space := sysreg.Space(sys)
	driver := harness.New(sys, space, harness.Config{
		Reps: 2, DelayMagnitudes: []time.Duration{2 * time.Second},
	})
	driver.ProfileAll()

	opt := beam.Options{NestGroups: NestGroups(space)}
	sched := alloc.NewSchedule(alloc.ScheduleConfig{
		Space: space, BudgetFactor: 8, Rng: rand.New(rand.NewSource(42)),
	}, driver)
	inc := beam.NewIncremental(opt)
	res := sched.Result()

	rounds := 0
	for !sched.Done() {
		wave := sched.Next(3) // small waves: many deltas, many comparisons
		if len(wave) == 0 {
			break
		}
		recs, _ := driver.ExecuteWave(wave)
		sched.Fold(recs)

		g := driver.Graph()
		got := inc.Search(g, res.SimScoreOf)
		want := beam.SearchGraph(g, res.SimScoreOf, opt)
		if len(got) != len(want) {
			t.Fatalf("round %d: incremental found %d cycles, full search %d", rounds, len(got), len(want))
		}
		for i := range got {
			if got[i].Score != want[i].Score || got[i].Signature() != want[i].Signature() {
				t.Fatalf("round %d cycle %d diverges:\nincremental: %v %s\nfull:        %v %s",
					rounds, i, got[i].Score, got[i].Signature(), want[i].Score, want[i].Signature())
			}
			if !reflect.DeepEqual(got[i].Edges, want[i].Edges) {
				t.Fatalf("round %d cycle %d edge lists diverge", rounds, i)
			}
		}
		rounds++
	}
	if rounds < 10 {
		t.Fatalf("only %d rounds executed; equivalence fuzz needs a real schedule", rounds)
	}
}

// TestEarlyStopDetectsMetastoreStormsUnderBudget: the acceptance
// regression for WithEarlyStop -- both seeded MetaStore storms must be
// detected with less than the full budget.
func TestEarlyStopDetectsMetastoreStormsUnderBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("real-system campaign skipped in -short mode")
	}
	sys := metastore.New()
	rep, err := NewCampaign(sys,
		WithConfig(lightConfig(42)),
		WithEarlyStop(3),
		WithWaveSize(4),
	).Run()
	if err != nil {
		t.Fatal(err)
	}
	if !rep.EarlyStopped {
		t.Fatal("campaign ran the full budget without stabilizing")
	}
	if len(rep.Rounds) == 0 {
		t.Fatal("no rounds recorded")
	}
	last := rep.Rounds[len(rep.Rounds)-1]
	if last.Spent >= last.Budget {
		t.Fatalf("early stop saved nothing: spent %d of %d", last.Spent, last.Budget)
	}
	got := map[string]bool{}
	for _, id := range DetectedBugs(rep, sys.Bugs()) {
		got[id] = true
	}
	for _, id := range []string{"RAFT-1", "RAFT-2"} {
		if !got[id] {
			t.Errorf("storm %s not detected before early stop (found %v after %d/%d runs)",
				id, DetectedBugs(rep, sys.Bugs()), last.Spent, last.Budget)
		}
	}
}
