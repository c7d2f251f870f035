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

// ichain is what a sink sees of one chain: indices into the edge slice
// plus the running score. Every sink call gets the calling worker's
// scratch chain, which the worker's next chain overwrites, so a sink that
// keeps anything past the call must copy it.
type ichain struct {
	idx      []int
	score    float64
	injs     int
	delayInj uint8 // count of distinct delay injections
}

func (c *ichain) mean() float64 { return meanOf(c.score, int32(c.injs)) }

// meanOf is the beam's ranking key: the mean SimScore of a chain's
// injections, 1 for a chain of connectors only.
func meanOf(score float64, injs int32) float64 {
	if injs == 0 {
		return 1
	}
	return score / float64(injs)
}

// containsEdge reports whether a chain already uses edge j (chains never
// repeat an edge: a repeated edge only re-traverses an already-found
// sub-cycle).
func containsEdge(row []int32, j int32) bool {
	for _, k := range row {
		if k == j {
			return true
		}
	}
	return false
}

// countsDelay reports whether appending edge j to the chain row adds a
// NEW distinct delay injection.
func (m *matcher) countsDelay(row []int32, j int) bool {
	ix := m.ix
	if ix.Connector[j] || ix.FromClass[j] != faults.ClassDelay {
		return false
	}
	from := ix.From[j]
	for _, k := range row {
		if !ix.Connector[k] && ix.From[k] == from {
			return false
		}
	}
	return true
}

// chainRows holds chains of one length in flat columns: row r's edge ids
// are idx[r*width:(r+1)*width], and its score sum, injection count and
// distinct-delay-injection count sit at index r of the other columns.
// Once the columns have grown, adding or overwriting a row allocates
// nothing, so the engine reuses the same buffers level after level.
type chainRows struct {
	width int
	idx   []int32
	score []float64
	injs  []int32
	delay []uint8
}

func (r *chainRows) reset(width int) {
	r.width = width
	r.idx, r.score, r.injs, r.delay = r.idx[:0], r.score[:0], r.injs[:0], r.delay[:0]
}

func (r *chainRows) len() int { return len(r.score) }

func (r *chainRows) row(i int) []int32 { return r.idx[i*r.width : (i+1)*r.width] }

// push appends the chain parent+j.
func (r *chainRows) push(parent []int32, j int32, score float64, injs int32, delay uint8) {
	r.idx = append(append(r.idx, parent...), j)
	r.score = append(r.score, score)
	r.injs = append(r.injs, injs)
	r.delay = append(r.delay, delay)
}

// set overwrites row i with the chain parent+j.
func (r *chainRows) set(i int, parent []int32, j int32, score float64, injs int32, delay uint8) {
	row := r.row(i)
	copy(row, parent)
	row[len(parent)] = j
	r.score[i], r.injs[i], r.delay[i] = score, injs, delay
}

// before reports whether chain a (parent ap plus edge aj, mean score am)
// ranks ahead of row b (mean score bm) in the beam's total order: mean
// score, then edge ids lexicographically. Rows of one level share their
// width, and equal ids mean equal rows.
func before(am float64, ap []int32, aj int32, bm float64, b []int32) bool {
	if am != bm {
		return am < bm
	}
	for k, e := range ap {
		if e != b[k] {
			return e < b[k]
		}
	}
	return aj < b[len(ap)]
}

// rowBefore is before for rows a and b of r.
func (r *chainRows) rowBefore(a, b int) bool {
	ra := r.row(a)
	n := len(ra) - 1
	return before(meanOf(r.score[a], r.injs[a]), ra[:n], ra[n], meanOf(r.score[b], r.injs[b]), r.row(b))
}

// chainWorker is one expansion worker's state, reused across levels.
type chainWorker struct {
	// kept holds the best children this worker generated at the current
	// level, at most BeamSize of them.
	kept chainRows
	// heap holds kept's row ids worst first once kept is full; until
	// then every child is kept and no order is maintained.
	heap []int32
	// children counts the level's queue-worthy children, kept or not.
	children int
	scratch  ichain
}

// chain fills the worker's scratch chain with parent+j for a sink call.
func (w *chainWorker) chain(parent []int32, j int32, score float64, injs int32, delay uint8) *ichain {
	c := &w.scratch
	c.idx = c.idx[:0]
	for _, k := range parent {
		c.idx = append(c.idx, int(k))
	}
	c.idx = append(c.idx, int(j))
	c.score, c.injs, c.delayInj = score, int(injs), delay
	return c
}

// offer keeps the chain parent+j if it ranks among the best beam chains
// offered since kept was reset: a candidate is compared with the worst
// kept row before anything is written, and a winner overwrites that row.
func (w *chainWorker) offer(beam int, parent []int32, j int32, score float64, injs int32, delay uint8) {
	k := &w.kept
	if k.len() < beam {
		k.push(parent, j, score, injs, delay)
		if k.len() == beam {
			w.heap = w.heap[:0]
			for i := 0; i < beam; i++ {
				w.heap = append(w.heap, int32(i))
			}
			for i := beam/2 - 1; i >= 0; i-- {
				w.down(i)
			}
		}
		return
	}
	worst := int(w.heap[0])
	if !before(meanOf(score, injs), parent, j, meanOf(k.score[worst], k.injs[worst]), k.row(worst)) {
		return
	}
	k.set(worst, parent, j, score, injs, delay)
	w.down(0)
}

// down sifts heap position i toward the leaves until no child ranks
// behind it.
func (w *chainWorker) down(i int) {
	h, k := w.heap, &w.kept
	for {
		c := 2*i + 1
		if c >= len(h) {
			return
		}
		if c+1 < len(h) && k.rowBefore(int(h[c]), int(h[c+1])) {
			c++
		}
		if !k.rowBefore(int(h[i]), int(h[c])) {
			return
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
}

// chainSink receives every cyclic chain the expansion closes, with the
// chain state as discovered (its idx starts at the rotation the search
// grew it from). Sinks may be called concurrently from expansion workers
// and must serialize internally; the chain is the worker's scratch (see
// ichain).
type chainSink func(c *ichain)

// nearSink receives every chain whose newest edge returns to the chain's
// start fault without passing the closing compatibility check: a cycle
// one piece of evidence short of closing. Same concurrency and scratch
// contract as chainSink.
type nearSink func(idx []int)

// runChains is the chain-expansion core behind the search's two
// enumerations (Incremental's rebuild and update) and the near-cycle
// probe: it grows chains from the given seed edges, level-synchronous
// with a beam of opt.BeamSize, reporting closed cycles to sink (and
// almost-closed chains to near, when non-nil). A chain that closes
// leaves the queue -- extending it would only re-traverse the reported
// cycle -- except in close-through mode (through = true), where closed
// chains keep expanding; the incremental update uses that mode to
// discover every cycle through a delta-touched seed even when the
// rotation rooted there closes early. The returned flag reports whether
// any level truncated the beam -- in which case the enumeration was not
// exhaustive and incremental reuse of its results is unsound.
//
// Each level's queue is the best opt.BeamSize of the previous level's
// children under the beam's total order (before). Every worker keeps
// only its own best opt.BeamSize, and worker 0 then absorbs the others'
// through the same bounded selection, so a level never stores more than
// opt.Workers * opt.BeamSize chains, and the queue is the same set for
// every worker count. Its order is not kept: no sink depends on arrival
// order. The last level's children are counted for the truncation flag
// but never stored.
func (m *matcher) runChains(seeds []int, opt Options, through bool, near nearSink, sink chainSink) bool {
	ix := m.ix
	ws := make([]chainWorker, opt.Workers)
	queue := &chainRows{width: 1}
	for _, i := range seeds {
		var (
			score float64
			injs  int32
			delay uint8
		)
		if !ix.Connector[i] {
			injs, score = 1, m.scores[i]
			if ix.FromClass[i] == faults.ClassDelay {
				delay = 1
			}
		}
		if opt.MaxDelayInjections >= 0 && int(delay) > opt.MaxDelayInjections {
			continue
		}
		if m.matchIdx(i, i) {
			sink(ws[0].chain(nil, int32(i), score, injs, delay))
		} else if near != nil && ix.To[i] == ix.From[i] {
			near(ws[0].chain(nil, int32(i), score, injs, delay).idx)
		}
		queue.push(nil, int32(i), score, injs, delay)
	}
	truncated := false
	for level := 1; level < opt.MaxLen && queue.len() > 0; level++ {
		last := level == opt.MaxLen-1
		shards := m.expand(ws, queue, opt, through, last, near, sink)
		children := 0
		for w := range ws[:shards] {
			children += ws[w].children
		}
		if children > opt.BeamSize {
			truncated = true
		}
		if last {
			break
		}
		w0 := &ws[0]
		for w := 1; w < shards; w++ {
			k := &ws[w].kept
			for i := 0; i < k.len(); i++ {
				row := k.row(i)
				n := len(row) - 1
				w0.offer(opt.BeamSize, row[:n], row[n], k.score[i], k.injs[i], k.delay[i])
			}
		}
		*queue, w0.kept = w0.kept, *queue
	}
	return truncated
}

// expand grows every queued chain by one edge on up to len(ws) workers
// (worker w takes rows w, w+n, ...) and returns the number of workers
// used. Closed and near chains go to the sinks as they are found; every
// queue-worthy child is counted and, unless last is set, offered to its
// worker's bounded beam.
func (m *matcher) expand(ws []chainWorker, queue *chainRows, opt Options, through, last bool, near nearSink, sink chainSink) int {
	ix := m.ix
	shards := min(len(ws), queue.len())
	work := func(w int) {
		wk := &ws[w]
		wk.kept.reset(queue.width + 1)
		wk.children = 0
		for qi := w; qi < queue.len(); qi += shards {
			parent := queue.row(qi)
			lastEdge, first := int(parent[len(parent)-1]), int(parent[0])
			for _, j32 := range ix.ByFrom[ix.To[lastEdge]] {
				j := int(j32)
				if containsEdge(parent, j32) || !m.matchIdx(lastEdge, j) {
					continue
				}
				nd := queue.delay[qi]
				if m.countsDelay(parent, j) {
					nd++
				}
				if opt.MaxDelayInjections >= 0 && int(nd) > opt.MaxDelayInjections {
					continue
				}
				score, injs := queue.score[qi], queue.injs[qi]
				if !ix.Connector[j] {
					injs++
					score += m.scores[j]
				}
				closes := m.matchIdx(j, first)
				if closes {
					sink(wk.chain(parent, j32, score, injs, nd))
					if !through {
						continue
					}
				} else if near != nil && ix.To[j] == ix.From[first] {
					near(wk.chain(parent, j32, score, injs, nd).idx)
				}
				wk.children++
				if !last {
					wk.offer(opt.BeamSize, parent, j32, score, injs, nd)
				}
			}
		}
	}
	if shards == 1 {
		work(0)
		return 1
	}
	var wg sync.WaitGroup
	for w := 0; w < shards; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			work(w)
		}(w)
	}
	wg.Wait()
	return shards
}

// bestEntry caches the winning candidate per signature: the cycle
// normalized to its canonical edge-index rotation, plus that rotation
// for cheap integer comparisons.
type bestEntry struct {
	cy  Cycle
	idx []int
}

// keepBest merges one canonical candidate and its signature into the
// per-signature winners with a deterministic preference (lowest score,
// then smallest canonical edge-index rotation): distinct chains can share
// a signature, and first-arrival dedup would let goroutine scheduling
// pick the surviving representative -- the search must be a pure
// function of its input. Comparing index rotations instead of rendered
// edge keys keeps the comparison free of string building, and the Cycle
// itself (the edge slice) is materialized only when the candidate wins
// its dedup slot. A winner stores can as is, so can must not change
// afterwards. It returns the winner's entry, or nil when the candidate
// lost.
func (m *matcher) keepBest(best map[string]*bestEntry, sig string, can []int, score float64) *bestEntry {
	if e, ok := best[sig]; !ok || score < e.cy.Score ||
		(score == e.cy.Score && lessIdx(can, e.idx)) {
		cy := Cycle{Edges: make([]fca.Edge, len(can)), Score: score}
		for i, k := range can {
			cy.Edges[i] = m.edges[k]
		}
		e = &bestEntry{cy: cy, idx: can}
		best[sig] = e
		return e
	}
	return nil
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

func allSeeds(n int) []int {
	seeds := make([]int, n)
	for i := range seeds {
		seeds[i] = i
	}
	return seeds
}

// rotationArrives reports whether the one-shot expansion, seeded at
// rotation r of the cyclic chain, can reach full length (it does unless
// the beam prunes it on the way): no proper prefix of length >= 2 may
// close early, because closed chains leave the queue. (A self-closing
// single seed edge stays queued, so length-1 prefixes never block.)
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

// arrivingRotations lists the rotations of a cyclic chain a one-shot
// search whose beam never truncates enumerates (rotationArrives), as
// offsets into can. An empty result means the chain is never reported.
// Arrival depends only on matchIdx among the chain's own edges, so the
// incremental update caches the result per stored chain and recomputes
// it only when a delta touches one of those edges.
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
// minimum over the rotations rots of the rotation-order float
// accumulation. An enumeration accumulates a chain's score in discovery
// order (the rotation it grew from), and the per-signature winner keeps
// the minimum across the rotations that actually arrive; replaying that
// minimum keeps every fold bit-identical to merging the arrivals
// directly, even when float summation order matters in the last ulp.
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
// chains are returned as-is, so the result may alias idx.
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
