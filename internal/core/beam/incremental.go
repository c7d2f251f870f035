// This file holds the incremental beam search behind anytime campaigns:
// instead of re-enumerating every chain after each round, it maintains
// the set of reported cyclic chains across graph deltas and re-examines
// only candidates reachable from delta-touched edges.
//
// Soundness rests on match() being edge-local: matchIdx(i, j) depends
// only on edges i and j, so both the validity and the reportability of a
// cyclic chain built entirely from edges the delta did not touch are
// exactly what they were the round before. New cycles must therefore
// pass through at least one delta-touched edge, and every rotation of a
// cycle is a valid chain, so seeding the expansion at the touched edges
// alone reaches each of them -- in close-through mode, because the
// one-shot engine drops chains from the queue once they close, and the
// rotation rooted at a touched edge may close early even though another
// rotation of the same cycle survives to full length. Discovered chains
// are stored only if the one-shot search would report them (at least one
// rotation arrives without an early close). Conversely, a stored chain
// can die -- evidence merges flip match() in both directions (empty
// evidence passes by default) -- so stored chains through touched edges
// are revalidated each round. Scores are never stored: SimScores change
// as the allocation protocol learns, so every round re-folds the chain
// store with the current scores, reproducing the one-shot search's
// dedup and ordering bit for bit.
//
// The equivalence to a full re-search is exact as long as the beam never
// truncates (the default 100k beam is ample for simulator-scale graphs).
// Truncation makes the enumeration non-exhaustive and chain reuse
// unsound, so the engine detects it and permanently falls back to
// delegating every round to the one-shot search, which is equal by
// definition. Cycle-dense targets do reach it: a MetaStore light campaign
// (seed 42) truncates in round 3 of 6 at 5 284 cycles, so rounds 3-6 and
// the final search each pay a full one-shot search (per-round costs in
// docs/MEASUREMENTS.md).

package beam

import (
	"strconv"
	"sync"

	"repro/internal/core/graph"
	"repro/internal/faults"
)

// Incremental is a stateful beam search over a growing causal graph.
// Build one with NewIncremental and call Search after every round with
// the current graph (successive snapshots of one campaign's graph): the
// result is identical to SearchGraph over the same graph and options.
// Not safe for concurrent use.
type Incremental struct {
	opt Options
	// groups are the loop-nest families resolved at the first Search and
	// pinned: rounds of one campaign must filter identically.
	groups map[faults.ID]int
	// store holds every currently-reported cyclic chain, keyed by its
	// canonical stable-id encoding. Dynamic edges are identified by their
	// (stable) position in the dynamic section; static edges by negative
	// ids, since their logical indices shift as the dynamic section grows.
	store map[string]*chainEntry
	// lastSeq/lastStatics are the graph watermarks of the last Search;
	// full delegates to the one-shot search forever after a beam
	// truncation.
	lastSeq     int
	lastStatics int
	primed      bool
	full        bool
}

// chainEntry is one stored cyclic chain plus the derived state that is
// invariant until a delta touches one of its edges: the signature (a
// function of the edges' identities, immutable) and the arriving
// rotations (a function of matchIdx among the chain's edges). The
// logical form of the chain is cached against the dynamic-section size
// it was computed for. Only scores must be re-derived every round.
type chainEntry struct {
	sids []int
	sig  string
	rots []int
	// can/canDyn cache the canonical logical rotation; stale when the
	// dynamic section grew past canDyn (only chains through static edges
	// actually shift).
	can    []int
	canDyn int
}

// logical returns the chain's canonical logical rotation under the
// current dynamic-section size. The canonical rotation choice itself is
// stable: growing nDyn shifts every static index by the same amount and
// preserves all pairwise index comparisons (dynamic ids are always
// smaller than static ones).
func (e *chainEntry) logical(nDyn int) []int {
	if e.can == nil || e.canDyn != nDyn {
		e.can = make([]int, len(e.sids))
		for i, sid := range e.sids {
			e.can[i] = logicalOf(sid, nDyn)
		}
		e.canDyn = nDyn
	}
	return e.can
}

// NewIncremental builds an incremental search with fixed options.
// opt.NestGroups (or, when nil, the first searched graph's persisted
// families) is pinned for the life of the searcher.
//
// A caller-narrowed beam (non-zero opt.BeamSize) disables incremental
// reuse entirely: every Search delegates to the one-shot engine. A
// bounded beam prunes globally, and a delta-seeded enumeration staying
// under the beam proves nothing about whether the full enumeration
// would -- delegation is the only way to keep the result exactly equal
// to SearchGraph. The default beam is a safety valve sized far beyond
// simulator-scale frontiers; the engine still abandons incremental
// reuse at the first sign of beam pressure (a truncating enumeration,
// or a chain store as large as the beam itself).
func NewIncremental(opt Options) *Incremental {
	custom := opt.BeamSize != 0
	opt.defaults()
	return &Incremental{opt: opt, store: make(map[string]*chainEntry), full: custom}
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

func encodeChain(sids []int) string {
	b := make([]byte, 0, 4*len(sids))
	for _, s := range sids {
		b = strconv.AppendInt(b, int64(s), 10)
		b = append(b, '|')
	}
	return string(b)
}

// Search folds the graph's growth since the previous call into the chain
// store and returns the full cycle list, equal to
// SearchGraph(g, simScoreOf, opt) for the same graph and pinned options.
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

	if inc.full {
		return searchFast(g, simScoreOf, opt)
	}

	m := newMatcher(g, simScoreOf)
	nDyn := g.DynLen()
	if g.Len()-nDyn != inc.lastStatics {
		// The static section changed (graph stitching mid-campaign): stored
		// stable ids are void. Start over.
		inc.primed = false
	}
	if !inc.primed {
		inc.rebuild(m, opt, nDyn)
	} else {
		var edges []int
		if delta != nil && delta.FromSeq == inc.lastSeq && delta.ToSeq == g.RawLen() {
			edges = delta.Edges
		} else {
			edges = g.DeltaSince(inc.lastSeq).Edges
		}
		inc.update(m, opt, nDyn, edges)
	}
	if len(inc.store) >= opt.BeamSize {
		// More reported cycles than beam slots: a future full enumeration
		// is plausibly under beam pressure even if the restricted ones were
		// not. Stop trusting restricted discovery before that can happen.
		inc.full = true
	}
	if inc.full {
		// This round's enumeration truncated the beam: chain reuse is
		// unsound, now and for every later round.
		return searchFast(g, simScoreOf, opt)
	}
	inc.primed = true
	inc.lastSeq = g.RawLen()
	inc.lastStatics = g.Len() - nDyn

	// Fold the store with the current scores: dedup by signature with the
	// one-shot search's deterministic preference, then order by (score,
	// signature). Signatures and arriving rotations are cached per chain
	// (invariant until a delta touches it), so a round's re-rank builds
	// no strings and runs no match checks for unchanged chains.
	best := make(map[string]*bestEntry, len(inc.store))
	for _, e := range inc.store {
		can := e.logical(nDyn)
		m.mergeBestSig(best, e.sig, can, m.chainScoreAt(can, e.rots))
	}
	return orderBest(best)
}

// storeSink returns a chain sink that records closed cycles as canonical
// stable-id chains, dropping single-nest-family structural artifacts and
// (in close-through discovery, vetArrival) chains the one-shot search
// would never report. The signature and arriving rotations are derived
// once here, not per round.
func (inc *Incremental) storeSink(m *matcher, opt Options, nDyn int, vetArrival bool, mu *sync.Mutex) chainSink {
	return func(c *ichain) {
		can := canonicalRotation(c.idx)
		if m.oneNestFamilyIdx(can, opt.NestGroups) {
			return
		}
		sids := make([]int, len(can))
		for i, k := range can {
			sids[i] = stableOf(k, nDyn)
		}
		key := encodeChain(sids)
		mu.Lock()
		_, dup := inc.store[key]
		mu.Unlock()
		if dup {
			return
		}
		rots := m.arrivingRotations(can)
		if vetArrival && len(rots) == 0 {
			return
		}
		e := &chainEntry{
			sids:   sids,
			sig:    m.signatureOf(can),
			rots:   rots,
			can:    append([]int(nil), can...),
			canDyn: nDyn,
		}
		mu.Lock()
		if _, ok := inc.store[key]; !ok {
			inc.store[key] = e
		}
		mu.Unlock()
	}
}

// rebuild re-enumerates the store from scratch (first round or
// static-section change) with the one-shot semantics: every arrival is a
// reported cycle by definition.
func (inc *Incremental) rebuild(m *matcher, opt Options, nDyn int) {
	inc.store = make(map[string]*chainEntry)
	var mu sync.Mutex
	if m.runChains(allSeeds(m.ix.N), opt, false, nil, inc.storeSink(m, opt, nDyn, false, &mu)) {
		inc.full = true
	}
}

// update folds one delta: revalidate stored chains through touched edges
// (validity, reportability, and the arrival set can all flip), then
// discover new cycles by seeding a close-through expansion at exactly
// those edges.
func (inc *Incremental) update(m *matcher, opt Options, nDyn int, touched []int) {
	if len(touched) == 0 {
		return
	}
	aff := make(map[int]bool, len(touched))
	for _, i := range touched {
		aff[stableOf(i, nDyn)] = true
	}
	for key, e := range inc.store {
		hit := false
		for _, sid := range e.sids {
			if aff[sid] {
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
	var mu sync.Mutex
	if m.runChains(touched, opt, true, nil, inc.storeSink(m, opt, nDyn, true, &mu)) {
		inc.full = true
	}
}

// Reset discards all incremental state: the chain store, the graph
// watermarks, and the pinned nest families. The next Search re-primes
// from scratch, exactly like a freshly-built searcher, and re-resolves
// nest families from its options or the searched graph. Callers use it
// when the graph they feed is rebuilt rather than grown -- the online
// monitor's evidence window evicting a bucket replaces the whole graph,
// so watermarks taken against the old graph are meaningless. A beam
// truncation (full) is NOT cleared: the fallback was triggered by scale,
// and a rebuilt graph of similar scale would only re-trigger it after
// one unsound round.
func (inc *Incremental) Reset() {
	inc.store = make(map[string]*chainEntry)
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
