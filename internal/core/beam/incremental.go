// This file holds the package's one cycle-search engine. SearchGraph is
// a fresh Incremental's first Search; anytime campaigns and the online
// monitor keep a searcher across rounds, and instead of re-enumerating
// every chain after each round it maintains the set of reported cyclic
// chains across graph deltas and re-examines only candidates reachable
// from delta-touched edges.
//
// Soundness rests on match() being edge-local: matchIdx(i, j) depends
// only on edges i and j, so both the validity and the reportability of a
// cyclic chain built entirely from edges the delta did not touch are
// exactly what they were the round before. New cycles must therefore
// pass through at least one delta-touched edge, and every rotation of a
// cycle is a valid chain, so seeding the expansion at the touched edges
// alone reaches each of them -- in close-through mode, because the
// one-shot enumeration drops chains from the queue once they close, and
// the rotation rooted at a touched edge may close early even though
// another rotation of the same cycle survives to full length. Discovered
// chains are stored only if the one-shot search would report them (at
// least one rotation arrives without an early close). Conversely, a
// stored chain can die -- evidence merges flip match() in both
// directions (empty evidence passes by default) -- so stored chains
// through touched edges are revalidated each round. Scores are never
// stored: SimScores change as the allocation protocol learns, so every
// round re-folds the chain store with the current scores, reproducing
// the one-shot search's dedup and ordering bit for bit.
//
// Reuse is exact as long as the beam never truncates (the default 100k
// beam is ample for simulator-scale graphs). Truncation makes an
// enumeration non-exhaustive and chain reuse unsound, so a searcher
// whose enumeration truncates (or whose store grows as large as the
// beam) turns full: that call and every later one
// re-enumerate from every seed (rebuild), which is the one-shot search
// itself, and the store is dropped after each fold. A rebuild stays
// exact under truncation because its sink records, per stored chain, the
// rotations that actually arrived, and the fold scores each chain by the
// minimum over exactly those -- the arrivals the one-shot search merges.
// Cycle-dense targets do turn full: a MetaStore light campaign (seed 42)
// truncates in round 3 of 6 at 5 284 cycles (per-round costs in
// docs/MEASUREMENTS.md).

package beam

import (
	"slices"
	"strconv"
	"sync"

	"repro/internal/core/graph"
	"repro/internal/faults"
)

// Incremental is the stateful beam search over a growing causal graph.
// Build one with NewIncremental and call Search after every round with
// the current graph (successive snapshots of one campaign's graph): each
// result is the one-shot search of that graph under the same options,
// which SearchGraph runs as a fresh searcher's first Search. Not safe for
// concurrent use.
type Incremental struct {
	opt Options
	// groups are the loop-nest families resolved at the first Search and
	// pinned: rounds of one campaign must filter identically.
	groups map[faults.ID]int
	// store holds every currently-reported cyclic chain, keyed by its
	// canonical stable-id encoding. Dynamic edges are identified by their
	// (stable) position in the dynamic section; static edges by negative
	// ids, since their logical indices shift as the dynamic section grows.
	// A full searcher keeps no store between calls.
	store map[string]*chainEntry
	// lastSeq/lastStatics are the graph watermarks of the last Search;
	// full makes every later Search a rebuild.
	lastSeq     int
	lastStatics int
	primed      bool
	full        bool
}

// chainEntry is one stored cyclic chain plus the derived state that is
// invariant until a delta touches one of its edges: the signature (a
// function of the edges' identities, immutable) and the rotations the
// one-shot search enumerates, as offsets into the canonical rotation (in
// a rebuild, the ones that arrived; in an update, arrivingRotations, a
// function of matchIdx among the chain's edges). The logical form of the
// chain is cached against the dynamic-section size it was computed for.
// Only scores must be re-derived every round.
type chainEntry struct {
	sig  string
	rots []int
	// can is the canonical logical rotation under a dynamic section of
	// canDyn edges: growing the section shifts the chain's static edges
	// only, so their stable ids (stableOf) are what carries over.
	can    []int
	canDyn int
}

// logical returns the chain's canonical logical rotation under the
// current dynamic-section size. The canonical rotation choice itself is
// stable: growing nDyn shifts every static index by the same amount and
// preserves all pairwise index comparisons (dynamic ids are always
// smaller than static ones).
func (e *chainEntry) logical(nDyn int) []int {
	if e.canDyn != nDyn {
		can := make([]int, len(e.can))
		for i, k := range e.can {
			can[i] = logicalOf(stableOf(k, e.canDyn), nDyn)
		}
		e.can, e.canDyn = can, nDyn
	}
	return e.can
}

// NewIncremental builds a searcher with fixed options. opt.NestGroups
// (or, when nil, the first searched graph's persisted families) is
// pinned for the life of the searcher.
//
// A caller-narrowed beam (non-zero opt.BeamSize) makes the searcher full
// from the start: every Search rebuilds. A bounded beam prunes globally,
// and a delta-seeded enumeration staying under the beam proves nothing
// about whether the full enumeration would -- re-enumerating is the only
// way to keep the result exactly the one-shot search's. The default beam
// is a safety valve sized far beyond simulator-scale frontiers; the
// searcher still turns full at the first sign of beam pressure (a
// truncating enumeration, or a chain store as large as the beam itself).
func NewIncremental(opt Options) *Incremental {
	custom := opt.BeamSize != 0
	opt.defaults()
	return &Incremental{opt: opt, full: custom}
}

// stableOf converts a logical edge index to its stable id.
func stableOf(i, nDyn int) int {
	if i < nDyn {
		return i
	}
	return -(i - nDyn + 1)
}

// logicalOf converts a stable id back to the logical index under the
// current dynamic-section size.
func logicalOf(sid, nDyn int) int {
	if sid >= 0 {
		return sid
	}
	return nDyn + (-sid - 1)
}

// appendKey appends the store key of a canonical chain: its stable ids,
// each '|'-terminated.
func appendKey(b []byte, can []int, nDyn int) []byte {
	for _, k := range can {
		b = strconv.AppendInt(b, int64(stableOf(k, nDyn)), 10)
		b = append(b, '|')
	}
	return b
}

// Search folds the graph's growth since the previous call into the chain
// store and returns the full cycle list: the one-shot search of the graph
// under the pinned options, one cycle per signature, ordered by (score,
// signature). The first call, a call after the static section changed
// and every call of a full searcher enumerate from every seed.
func (inc *Incremental) Search(g *graph.Graph, simScoreOf func(faults.ID) float64) []Cycle {
	return inc.search(g, nil, simScoreOf)
}

// SearchDelta is Search with the round's delta already in hand (the
// round loop computes it when the wave executes): when the delta's
// window matches exactly what this searcher has not yet folded, the
// graph is not re-scanned; any mismatch falls back to recomputing.
func (inc *Incremental) SearchDelta(g *graph.Graph, delta graph.Delta, simScoreOf func(faults.ID) float64) []Cycle {
	return inc.search(g, &delta, simScoreOf)
}

func (inc *Incremental) search(g *graph.Graph, delta *graph.Delta, simScoreOf func(faults.ID) float64) []Cycle {
	opt := inc.opt
	if simScoreOf == nil {
		simScoreOf = g.ScoreFunc()
	}
	if inc.groups == nil {
		inc.groups = opt.NestGroups
		if inc.groups == nil {
			inc.groups = g.NestGroups()
		}
	}
	opt.NestGroups = inc.groups

	m := newMatcher(g, simScoreOf)
	nDyn := g.DynLen()
	// A changed static section (graph stitching mid-campaign) voids the
	// stored stable ids: start over, as a fresh or full searcher does.
	rebuild := inc.full || !inc.primed || g.Len()-nDyn != inc.lastStatics
	if !rebuild {
		var edges []int
		if delta != nil && delta.FromSeq == inc.lastSeq && delta.ToSeq == g.RawLen() {
			edges = delta.Edges
		} else {
			edges = g.DeltaSince(inc.lastSeq).Edges
		}
		// A truncating delta enumeration missed chains, and a store as
		// large as the beam says a full enumeration may truncate where
		// the delta's did not: either way only re-enumerating is exact.
		rebuild = inc.update(m, opt, nDyn, edges) || len(inc.store) >= opt.BeamSize
	}
	if rebuild && (inc.rebuild(m, opt, nDyn) || len(inc.store) >= opt.BeamSize) {
		// The beam truncated, or the store outgrew it: a future
		// delta-seeded enumeration could stay under the beam where a full
		// one would not. Stop trusting restricted discovery for good.
		inc.full = true
	}
	inc.primed = true
	inc.lastSeq = g.RawLen()
	inc.lastStatics = g.Len() - nDyn

	// Fold the store with the current scores: dedup by signature with the
	// one-shot search's deterministic preference, then order by (score,
	// signature). Signatures and rotations are cached per chain
	// (invariant until a delta touches it), so a round's re-rank builds
	// no strings and runs no match checks for unchanged chains.
	// A full searcher rebuilds next call, so its store goes entry by
	// entry as the fold consumes it.
	best := make(map[string]*bestEntry, len(inc.store))
	for key, e := range inc.store {
		can := e.logical(nDyn)
		m.keepBest(best, e.sig, can, m.chainScoreAt(can, e.rots))
		if inc.full {
			delete(inc.store, key)
		}
	}
	if inc.full {
		inc.store = nil
	}
	return orderBest(best)
}

// storeSink returns a chain sink that records closed cycles as canonical
// stable-id chains, dropping single-nest-family structural artifacts; a
// chain's signature is derived once, when it is first stored. In a
// rebuild (through unset) every arrival is one the one-shot search
// merges, so the sink appends the rotation the chain arrived at -- the
// position of its seed edge in the canonical rotation -- to the stored
// chain's rots, for new and duplicate keys alike: under truncation the
// pruned beam need not produce every rotation that could arrive. In a
// close-through update arrivals say nothing about the one-shot search: a
// new chain gets its arrivingRotations, and one with none is dropped.
func (inc *Incremental) storeSink(m *matcher, opt Options, nDyn int, through bool) chainSink {
	var mu sync.Mutex
	return func(c *ichain) {
		can := canonicalRotation(c.idx)
		if m.oneNestFamilyIdx(can, opt.NestGroups) {
			return
		}
		var buf [64]byte
		key := appendKey(buf[:0], can, nDyn)
		rot := slices.Index(can, c.idx[0])
		mu.Lock()
		e, dup := inc.store[string(key)]
		if dup && !through {
			e.rots = append(e.rots, rot)
		}
		mu.Unlock()
		if dup {
			return
		}
		rots := []int{rot}
		if through {
			if rots = m.arrivingRotations(can); len(rots) == 0 {
				return
			}
		}
		e = &chainEntry{sig: m.signatureOf(can), rots: rots, can: append([]int(nil), can...), canDyn: nDyn}
		mu.Lock()
		if old, ok := inc.store[string(key)]; !ok {
			inc.store[string(key)] = e
		} else if !through {
			old.rots = append(old.rots, rot)
		}
		mu.Unlock()
	}
}

// rebuild re-enumerates the store from every seed with the one-shot
// semantics and reports whether the beam truncated.
func (inc *Incremental) rebuild(m *matcher, opt Options, nDyn int) bool {
	inc.store = make(map[string]*chainEntry)
	return m.runChains(allSeeds(m.ix.N), opt, false, nil, inc.storeSink(m, opt, nDyn, false))
}

// update folds one delta: revalidate stored chains through touched edges
// (validity, reportability, and the arrival set can all flip), then
// discover new cycles by seeding a close-through expansion at exactly
// those edges. It reports whether that expansion truncated the beam.
func (inc *Incremental) update(m *matcher, opt Options, nDyn int, touched []int) bool {
	if len(touched) == 0 {
		return false
	}
	aff := make(map[int]bool, len(touched))
	for _, i := range touched {
		aff[stableOf(i, nDyn)] = true
	}
	for key, e := range inc.store {
		hit := false
		for _, k := range e.can {
			if aff[stableOf(k, e.canDyn)] {
				hit = true
				break
			}
		}
		if !hit {
			continue
		}
		can := e.logical(nDyn)
		if !m.validCycle(can, opt) {
			delete(inc.store, key)
			continue
		}
		if e.rots = m.arrivingRotations(can); len(e.rots) == 0 {
			delete(inc.store, key)
		}
	}
	return m.runChains(touched, opt, true, nil, inc.storeSink(m, opt, nDyn, true))
}

// Reset discards all incremental state: the chain store, the graph
// watermarks, and the pinned nest families. The next Search re-primes
// from scratch, exactly like a freshly-built searcher, and re-resolves
// nest families from its options or the searched graph. Callers use it
// when the graph they feed is rebuilt rather than grown -- the online
// monitor's evidence window evicting a bucket replaces the whole graph,
// so watermarks taken against the old graph are meaningless. A full
// searcher stays full: beam pressure comes from scale, and a rebuilt
// graph of similar scale would only bring it back after one unsound
// round.
func (inc *Incremental) Reset() {
	inc.store = nil
	inc.groups = nil
	inc.lastSeq = 0
	inc.lastStatics = 0
	inc.primed = false
}

// NearCycleFaults reports every fault sitting on a near-cycle of g: a
// valid chain whose endpoint returns to its start fault while the closing
// compatibility check fails -- a cycle one piece of causal evidence short
// of being reported. The adaptive allocation protocol reweights phase-
// three draws toward clusters containing these faults, spending the
// remaining budget where one more experiment could close a loop.
func NearCycleFaults(g *graph.Graph, opt Options) map[faults.ID]bool {
	opt.defaults()
	if opt.NestGroups == nil {
		opt.NestGroups = g.NestGroups()
	}
	m := newMatcher(g, func(faults.ID) float64 { return 1 })
	ix := m.ix
	var mu sync.Mutex
	out := make(map[faults.ID]bool)
	near := func(idx []int) {
		mu.Lock()
		for _, k := range idx {
			out[ix.FaultOf[ix.From[k]]] = true
			out[ix.FaultOf[ix.To[k]]] = true
		}
		mu.Unlock()
	}
	m.runChains(allSeeds(ix.N), opt, false, near, func(*ichain) {})
	return out
}
