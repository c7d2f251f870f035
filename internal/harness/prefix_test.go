package harness

import (
	"reflect"
	"testing"
	"time"

	"repro/internal/faults"
	"repro/internal/systems/kvstore"
	"repro/internal/systems/metastore"
	"repro/internal/systems/sysreg"
)

func entryFor(test string, seed int64) *prefixEntry {
	return &prefixEntry{key: ckKey{test: test, seed: seed}}
}

func TestCkptCacheEvictsLRU(t *testing.T) {
	c := newCkptCache(100)
	a, b, cc := entryFor("a", 1), entryFor("b", 1), entryFor("c", 1)
	if v := c.update(a, 40); v != nil {
		t.Fatalf("a evicted %v on insert", v)
	}
	if v := c.update(b, 40); v != nil {
		t.Fatalf("b evicted %v on insert", v)
	}
	// Touch a so b becomes least recently used; inserting 40 more bytes
	// must then evict b (and only b).
	c.update(a, 40)
	victims := c.update(cc, 40)
	if len(victims) != 1 || victims[0] != b {
		t.Fatalf("victims = %v, want [b]", victims)
	}
	bytes, evictions := c.usage()
	if bytes != 80 || evictions != 1 {
		t.Fatalf("usage = (%d, %d), want (80, 1)", bytes, evictions)
	}
}

func TestCkptCacheEvictsOversizedEntry(t *testing.T) {
	c := newCkptCache(100)
	a, big := entryFor("a", 1), entryFor("big", 1)
	c.update(a, 60)
	victims := c.update(big, 500)
	// Everything must go: a by LRU order, then big itself, since it alone
	// exceeds the bound.
	if len(victims) != 2 || victims[0] != a || victims[1] != big {
		t.Fatalf("victims = %v, want [a big]", victims)
	}
	if bytes, _ := c.usage(); bytes != 0 {
		t.Fatalf("bytes = %d after oversized insert, want 0", bytes)
	}
}

func TestCkptCacheGrowsSameKey(t *testing.T) {
	c := newCkptCache(100)
	a := entryFor("a", 1)
	c.update(a, 30)
	if v := c.update(a, 50); v != nil {
		t.Fatalf("growing a evicted %v", v)
	}
	if bytes, _ := c.usage(); bytes != 50 {
		t.Fatalf("bytes = %d after growth, want 50", bytes)
	}
	// A zero-byte update removes the entry entirely.
	c.update(a, 0)
	if bytes, _ := c.usage(); bytes != 0 {
		t.Fatalf("bytes = %d after removal, want 0", bytes)
	}
}

// checkpointableDriver builds a driver over one of the Checkpointable
// target systems, with sharing on or off.
func checkpointableDriver(t *testing.T, sys sysreg.System, parallelism int, noShare bool) *Driver {
	t.Helper()
	return New(sys, sysreg.Space(sys), Config{
		Reps:            2,
		DelayMagnitudes: []time.Duration{2 * time.Second},
		Parallelism:     parallelism,
		NoPrefixShare:   noShare,
	})
}

// TestPrefixShareMatchesScratch is the campaign-level identity check on
// both converted target systems: with prefix sharing on (the default),
// serial and parallel campaigns produce exactly the edges, marks,
// interference sets, and sim counts of a sharing-off campaign.
func TestPrefixShareMatchesScratch(t *testing.T) {
	cases := []struct {
		name string
		sys  sysreg.System
		work []struct {
			f    faults.ID
			test string
		}
	}{
		{
			name: "metastore",
			sys:  metastore.New(),
			work: []struct {
				f    faults.ID
				test string
			}{
				{metastore.PtElectionLoop, "leader_transfer"},
				{metastore.PtHBFresh, "slow_follower_catchup"},
			},
		},
		{
			name: "kvstore",
			sys:  kvstore.New(),
			work: []struct {
				f    faults.ID
				test string
			}{
				// flush_loop first fires ~2s in while both workloads have
				// quiescent instants well before that, so forks happen; the
				// storm pair exercises the always-busy fallback path.
				{kvstore.PtFlushLoop, "basic_put"},
				{kvstore.PtFlushLoop, "wal_quiet"},
				{kvstore.PtDeployLoop, "create_clone_storm"},
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			scratch := checkpointableDriver(t, tc.sys, 1, true)
			shared := checkpointableDriver(t, tc.sys, 1, false)
			sharedPar := checkpointableDriver(t, tc.sys, 8, false)

			var scratchIntf, sharedIntf [][]faults.ID
			for _, wk := range tc.work {
				scratchIntf = append(scratchIntf, scratch.Execute(wk.f, wk.test))
				sharedIntf = append(sharedIntf, shared.Execute(wk.f, wk.test))
				sharedPar.Execute(wk.f, wk.test)
			}
			if !reflect.DeepEqual(sharedIntf, scratchIntf) {
				t.Errorf("interference sets diverge:\nshared:  %v\nscratch: %v", sharedIntf, scratchIntf)
			}
			for _, d := range []*Driver{shared, sharedPar} {
				if !reflect.DeepEqual(d.Edges(), scratch.Edges()) {
					t.Errorf("edges diverge:\nshared:  %v\nscratch: %v", d.Edges(), scratch.Edges())
				}
				if !reflect.DeepEqual(d.Graph().Marks(), scratch.Graph().Marks()) {
					t.Errorf("marks diverge: %v vs %v", d.Graph().Marks(), scratch.Graph().Marks())
				}
				if d.SimCount() != scratch.SimCount() {
					t.Errorf("sim counts diverge: shared %d vs scratch %d", d.SimCount(), scratch.SimCount())
				}
			}

			// The sharing driver must actually have shared something, and
			// the scratch driver must not have touched the machinery.
			st := shared.CheckpointStats()
			if st.Avoided() == 0 {
				t.Errorf("sharing driver avoided no simulations: %+v", st)
			}
			if st.PrefixRuns == 0 {
				t.Errorf("sharing driver built no prefixes: %+v", st)
			}
			if off := scratch.CheckpointStats(); off != (CheckpointStats{}) {
				t.Errorf("scratch driver has prefix activity: %+v", off)
			}
		})
	}
}

// TestPrefixShareFallsBackUnderTinyCache: a cache too small to hold any
// probe set degrades to clones and misses but never changes results.
func TestPrefixShareFallsBackUnderTinyCache(t *testing.T) {
	sys := metastore.New()
	scratch := checkpointableDriver(t, sys, 1, true)
	tiny := New(sys, sysreg.Space(sys), Config{
		Reps:            2,
		DelayMagnitudes: []time.Duration{2 * time.Second},
		CheckpointBytes: 1, // every probe set is immediately evicted
	})
	scratch.Execute(metastore.PtElectionLoop, "leader_transfer")
	tiny.Execute(metastore.PtElectionLoop, "leader_transfer")
	if !reflect.DeepEqual(tiny.Edges(), scratch.Edges()) {
		t.Fatalf("edges diverge under eviction pressure:\ntiny:    %v\nscratch: %v", tiny.Edges(), scratch.Edges())
	}
	st := tiny.CheckpointStats()
	if st.Hits != 0 {
		t.Errorf("tiny cache recorded %d fork hits", st.Hits)
	}
	if st.Evictions == 0 {
		t.Errorf("tiny cache evicted nothing: %+v", st)
	}
	if st.BytesHeld != 0 {
		t.Errorf("tiny cache holds %d bytes", st.BytesHeld)
	}
}
