package beam

import (
	"sort"
	"sync"

	"repro/internal/core/fca"
	"repro/internal/core/graph"
	"repro/internal/faults"
)

// matcher is the search engine's view of a prebuilt graph: the columnar
// index (dense fault ids and interned state-key id sets, computed once at
// graph insertion), the materialized edges for cycle output, and the
// per-edge scores. Matching costs integer comparisons only -- no state
// key is ever built or hashed during a search.
type matcher struct {
	ix     *graph.Index
	edges  []fca.Edge // materialized once, for cycle output
	scores []float64  // SimScore of the injected fault (From)
}

func newMatcher(g *graph.Graph, simScoreOf func(faults.ID) float64) *matcher {
	ix := g.Index()
	m := &matcher{
		ix:     ix,
		edges:  ix.Edges,
		scores: make([]float64, ix.N),
	}
	for i := 0; i < ix.N; i++ {
		m.scores[i] = simScoreOf(ix.FaultOf[ix.From[i]])
	}
	return m
}

// intersects reports whether two sorted interned-key-id sets share an
// element.
func intersects(a, b []int32) bool {
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] == b[j]:
			return true
		case a[i] < b[j]:
			i++
		default:
			j++
		}
	}
	return false
}

// matchIdx implements Algorithm 1's match over indexed edges i -> j.
func (m *matcher) matchIdx(i, j int) bool {
	ix := m.ix
	if ix.To[i] != ix.From[j] || ix.ToClass[i] != ix.FromClass[j] {
		return false
	}
	// Connector sequencing per §6.1: an ICFG (child->parent) edge may be
	// followed by a CFG (parent->sibling) edge or by a dynamic edge; two
	// like connectors in a row only walk the static nest without any
	// dynamic evidence.
	if ix.Kind[i] == faults.ICFG && ix.Kind[j] == faults.ICFG {
		return false
	}
	if ix.Kind[i] == faults.CFG && (ix.Kind[j] == faults.CFG || ix.Kind[j] == faults.ICFG) {
		return false
	}
	switch ix.Kind[j] {
	case faults.ED, faults.SD, faults.ICFG, faults.CFG:
		if ix.ToClass[i] != faults.ClassDelay {
			return false
		}
	case faults.EI, faults.SI:
		if ix.ToClass[i] == faults.ClassDelay {
			return false
		}
	}
	// Local compatibility: missing evidence passes; delay faults compare
	// stacks only.
	toS, fromS := ix.ToStack[i], ix.FromStack[j]
	if len(toS) == 0 || len(fromS) == 0 {
		return true
	}
	if ix.ToDelay[i] || ix.FromDelay[j] {
		return intersects(toS, fromS)
	}
	return intersects(ix.ToFull[i], ix.FromFull[j])
}

// ichain is the compact chain representation: indices into the edge slice.
type ichain struct {
	idx      []int
	score    float64
	injs     int
	delayInj uint8 // count of distinct delay injections
}

func (m *matcher) meanScore(c *ichain) float64 {
	if c.injs == 0 {
		return 1
	}
	return c.score / float64(c.injs)
}

// contains reports whether the chain already uses edge j (chains never
// repeat an edge: a repeated edge only re-traverses an already-found
// sub-cycle).
func (c *ichain) contains(j int) bool {
	for _, k := range c.idx {
		if k == j {
			return true
		}
	}
	return false
}

// countsDelay reports whether appending edge j adds a NEW distinct delay
// injection.
func (m *matcher) countsDelay(c *ichain, j int) bool {
	ix := m.ix
	if ix.Connector[j] || ix.FromClass[j] != faults.ClassDelay {
		return false
	}
	from := ix.From[j]
	for _, k := range c.idx {
		if !ix.Connector[k] && ix.From[k] == from {
			return false
		}
	}
	return true
}

// mkChain seeds a length-1 chain from edge i.
func (m *matcher) mkChain(i int) ichain {
	ix := m.ix
	c := ichain{idx: []int{i}}
	if !ix.Connector[i] {
		c.injs = 1
		c.score = m.scores[i]
		if ix.FromClass[i] == faults.ClassDelay {
			c.delayInj = 1
		}
	}
	return c
}

// chainSink receives every cyclic chain the expansion closes, with the
// chain state as discovered (its idx starts at the rotation the search
// grew it from). Sinks may be called concurrently from expansion workers
// and must serialize internally.
type chainSink func(c *ichain)

// nearSink receives every chain whose newest edge returns to the chain's
// start fault without passing the closing compatibility check: a cycle
// one piece of evidence short of closing. Same concurrency contract as
// chainSink.
type nearSink func(idx []int)

// runChains is the shared chain-expansion core behind the one-shot
// search, the incremental search, and the near-cycle probe: it grows
// chains from the given seed edges, level-synchronous with a beam of
// opt.BeamSize, reporting closed cycles to sink (and almost-closed
// chains to near, when non-nil). A chain that closes leaves the queue --
// extending it would only re-traverse the reported cycle -- except in
// close-through mode (through = true), where closed chains keep
// expanding; the incremental search uses that mode to discover every
// cycle through a delta-touched seed even when the rotation rooted there
// closes early. The returned flag reports whether any level truncated
// the beam -- in which case the enumeration was not exhaustive and
// incremental reuse of its results is unsound.
func (m *matcher) runChains(seeds []int, opt Options, through bool, near nearSink, sink chainSink) bool {
	ix := m.ix
	truncated := false
	queue := make([]ichain, 0, len(seeds))
	for _, i := range seeds {
		c := m.mkChain(i)
		if opt.MaxDelayInjections >= 0 && int(c.delayInj) > opt.MaxDelayInjections {
			continue
		}
		if m.matchIdx(i, i) {
			// Sink a copy: addressing c itself would heap-box every seed
			// chain (the sink callee is opaque to escape analysis).
			closed := c
			sink(&closed)
		} else if near != nil && ix.To[i] == ix.From[i] {
			near(c.idx)
		}
		queue = append(queue, c)
	}
	for level := 1; level < opt.MaxLen && len(queue) > 0; level++ {
		next := m.expand(queue, opt, through, near, sink)
		sort.Slice(next, func(a, b int) bool {
			sa, sb := m.meanScore(&next[a]), m.meanScore(&next[b])
			if sa != sb {
				return sa < sb
			}
			return lessIdx(next[a].idx, next[b].idx)
		})
		if len(next) > opt.BeamSize {
			truncated = true
			next = next[:opt.BeamSize]
		}
		queue = next
	}
	return truncated
}

func (m *matcher) expand(queue []ichain, opt Options, through bool, near nearSink, sink chainSink) []ichain {
	ix := m.ix
	shards := opt.Workers
	if shards > len(queue) {
		shards = len(queue)
	}
	if shards == 0 {
		return nil
	}
	results := make([][]ichain, shards)
	var wg sync.WaitGroup
	for w := 0; w < shards; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var local []ichain
			for qi := w; qi < len(queue); qi += shards {
				c := &queue[qi]
				last := c.idx[len(c.idx)-1]
				for _, j32 := range ix.ByFrom[ix.To[last]] {
					j := int(j32)
					if c.contains(j) || !m.matchIdx(last, j) {
						continue
					}
					nd := c.delayInj
					if m.countsDelay(c, j) {
						nd++
					}
					if opt.MaxDelayInjections >= 0 && int(nd) > opt.MaxDelayInjections {
						continue
					}
					nc := ichain{
						idx:      append(append(make([]int, 0, len(c.idx)+1), c.idx...), j),
						score:    c.score,
						injs:     c.injs,
						delayInj: nd,
					}
					if !ix.Connector[j] {
						nc.injs++
						nc.score += m.scores[j]
					}
					if m.matchIdx(j, nc.idx[0]) {
						sink(&nc)
						if through {
							local = append(local, nc)
						}
					} else {
						if near != nil && ix.To[j] == ix.From[nc.idx[0]] {
							near(nc.idx)
						}
						local = append(local, nc)
					}
				}
			}
			results[w] = local
		}(w)
	}
	wg.Wait()
	var next []ichain
	for _, r := range results {
		next = append(next, r...)
	}
	return next
}

// bestEntry caches the winning candidate per signature: the cycle
// normalized to its canonical edge-index rotation, plus that rotation
// for cheap integer comparisons.
type bestEntry struct {
	cy  Cycle
	idx []int
}

// mergeBest merges one canonical candidate into the per-signature winners
// with a deterministic preference (lowest score, then smallest canonical
// edge-index rotation): distinct chains can share a signature, and
// first-arrival dedup would let goroutine scheduling pick the surviving
// representative -- the search must be a pure function of its input.
// Comparing index rotations instead of rendered edge keys keeps the
// duplicate-arrival path (every rotation of every cycle) free of string
// building, and the Cycle itself (the edge slice) is materialized only
// when the candidate actually wins its dedup slot.
func (m *matcher) mergeBest(best map[string]*bestEntry, can []int, score float64) {
	m.mergeBestSig(best, m.signatureOf(can), can, score)
}

// mergeBestSig is mergeBest with a precomputed signature (the
// incremental fold caches signatures per stored chain, so re-ranking a
// round builds no strings for unchanged chains).
func (m *matcher) mergeBestSig(best map[string]*bestEntry, sig string, can []int, score float64) {
	if e, ok := best[sig]; !ok || score < e.cy.Score ||
		(score == e.cy.Score && lessIdx(can, e.idx)) {
		cy := Cycle{Edges: make([]fca.Edge, len(can)), Score: score}
		for i, k := range can {
			cy.Edges[i] = m.edges[k]
		}
		best[sig] = &bestEntry{cy: cy, idx: can}
	}
}

// orderBest renders the final cycle list sorted by (score, signature),
// using the signatures already computed as dedup keys -- never inside the
// comparator.
func orderBest(best map[string]*bestEntry) []Cycle {
	type sigCycle struct {
		sig string
		cy  Cycle
	}
	ordered := make([]sigCycle, 0, len(best))
	for sig, e := range best {
		ordered = append(ordered, sigCycle{sig: sig, cy: e.cy})
	}
	sort.Slice(ordered, func(i, j int) bool {
		if ordered[i].cy.Score != ordered[j].cy.Score {
			return ordered[i].cy.Score < ordered[j].cy.Score
		}
		return ordered[i].sig < ordered[j].sig
	})
	cycles := make([]Cycle, len(ordered))
	for i, sc := range ordered {
		cycles[i] = sc.cy
	}
	return cycles
}

// searchFast is the optimized parallel beam search engine behind Search
// and SearchGraph.
func searchFast(g *graph.Graph, simScoreOf func(faults.ID) float64, opt Options) []Cycle {
	m := newMatcher(g, simScoreOf)
	var (
		mu   sync.Mutex
		best = map[string]*bestEntry{}
	)
	sink := func(c *ichain) {
		can := canonicalRotation(c.idx)
		if m.oneNestFamilyIdx(can, opt.NestGroups) {
			return
		}
		score := m.meanScore(c)
		mu.Lock()
		m.mergeBest(best, can, score)
		mu.Unlock()
	}
	m.runChains(allSeeds(m.ix.N), opt, false, nil, sink)
	return orderBest(best)
}

func allSeeds(n int) []int {
	seeds := make([]int, n)
	for i := range seeds {
		seeds[i] = i
	}
	return seeds
}

// rotationArrives reports whether the one-shot expansion, seeded at
// rotation r of the cyclic chain, reaches full length: no proper prefix
// of length >= 2 may close early, because closed chains leave the queue.
// (A self-closing single seed edge stays queued, so length-1 prefixes
// never block.)
func (m *matcher) rotationArrives(can []int, r int) bool {
	n := len(can)
	first := can[r%n]
	for k := 2; k < n; k++ {
		if m.matchIdx(can[(r+k-1)%n], first) {
			return false
		}
	}
	return true
}

// arrivingRotations lists the rotations of a cyclic chain the one-shot
// search enumerates (rotationArrives), as offsets into can. An empty
// result means the chain is never reported. Arrival depends only on
// matchIdx among the chain's own edges, so the incremental searcher
// caches the result per stored chain and recomputes it only when a
// delta touches one of those edges.
func (m *matcher) arrivingRotations(can []int) []int {
	var rots []int
	for r := range can {
		if m.rotationArrives(can, r) {
			rots = append(rots, r)
		}
	}
	return rots
}

// chainScoreAt computes the dedup score of a stored cyclic chain: the
// minimum over its arriving rotations of the rotation-order float
// accumulation. The one-shot search accumulates a chain's score in
// discovery order (the rotation it grew from) and keeps the
// per-signature minimum across the rotations that actually arrive;
// replaying that minimum keeps incremental folds bit-identical to a full
// re-search even when float summation order matters in the last ulp.
func (m *matcher) chainScoreAt(can []int, rots []int) float64 {
	ix := m.ix
	injs := 0
	for _, k := range can {
		if !ix.Connector[k] {
			injs++
		}
	}
	if injs == 0 {
		return 1
	}
	best := 0.0
	seen := false
	for _, r := range rots {
		sum := 0.0
		for i := 0; i < len(can); i++ {
			if k := can[(r+i)%len(can)]; !ix.Connector[k] {
				sum += m.scores[k]
			}
		}
		if v := sum / float64(injs); !seen || v < best {
			best = v
			seen = true
		}
	}
	return best
}

// validCycle re-checks a stored cyclic chain against the current graph
// evidence: every cyclic-consecutive pair must still match, and the
// distinct-delay-injection limit must still hold. Evidence merges can
// flip a match in either direction (an empty evidence set passes by
// default; its first occurrence may fail to intersect), so chains through
// evidence-touched edges must be revalidated each round.
func (m *matcher) validCycle(can []int, opt Options) bool {
	ix := m.ix
	n := len(can)
	for i := 0; i < n; i++ {
		if !m.matchIdx(can[i], can[(i+1)%n]) {
			return false
		}
	}
	if opt.MaxDelayInjections >= 0 {
		delays := 0
		for i, k := range can {
			if ix.Connector[k] || ix.FromClass[k] != faults.ClassDelay {
				continue
			}
			fresh := true
			for _, p := range can[:i] {
				if !ix.Connector[p] && ix.From[p] == ix.From[k] {
					fresh = false
					break
				}
			}
			if fresh {
				delays++
			}
		}
		if delays > opt.MaxDelayInjections {
			return false
		}
	}
	return true
}

// canonicalRotation returns the lexicographically-smallest rotation of a
// chain's edge-index sequence: every rotation of a cycle normalizes to
// the same representative, and the order is total over distinct edge
// sequences (indices are unique within a chain). Already-canonical
// chains are returned as-is (the caller owns idx and never mutates it
// afterwards).
func canonicalRotation(idx []int) []int {
	bestR := 0
	for r := 1; r < len(idx); r++ {
		for i := 0; i < len(idx); i++ {
			a, b := idx[(r+i)%len(idx)], idx[(bestR+i)%len(idx)]
			if a != b {
				if a < b {
					bestR = r
				}
				break
			}
		}
	}
	if bestR == 0 {
		return idx
	}
	out := make([]int, len(idx))
	for i := range idx {
		out[i] = idx[(bestR+i)%len(idx)]
	}
	return out
}

// signatureOf renders the rotation-invariant signature of a canonical
// edge-index rotation without materializing the Cycle. It matches
// Cycle.Signature exactly (Signature is rotation-invariant, so feeding
// the canonical rotation yields the same string).
func (m *matcher) signatureOf(can []int) string {
	parts := make([]string, len(can))
	for i, k := range can {
		e := &m.edges[k]
		parts[i] = string(e.From) + "-" + e.Kind.String() + "-" + e.Test
	}
	return minRotation(parts)
}

// oneNestFamilyIdx reports whether every fault touched by the cycle (a
// vector of edge indices) belongs to a single loop-nest family: such
// "cycles" merely restate that a nested loop shares fate with its parent.
func (m *matcher) oneNestFamilyIdx(can []int, groups map[faults.ID]int) bool {
	if len(groups) == 0 {
		return false
	}
	ix := m.ix
	family := -1
	for _, k := range can {
		for _, f := range [2]faults.ID{ix.FaultOf[ix.From[k]], ix.FaultOf[ix.To[k]]} {
			g, ok := groups[f]
			if !ok {
				return false // a fault outside any nest: real cycle
			}
			if family == -1 {
				family = g
			} else if family != g {
				return false
			}
		}
	}
	return family != -1
}

func lessIdx(a, b []int) bool {
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return len(a) < len(b)
}
