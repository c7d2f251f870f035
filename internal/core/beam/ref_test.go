package beam

// The references the engine is held to: plain, allocation-heavy
// implementations of what the search computes, kept only for tests.

import (
	"sort"
	"sync"

	"repro/internal/core/graph"
	"repro/internal/faults"
)

// refSearchGraph is the reference one-shot search: every arrival (each
// rotation of each closed chain the expansion from every seed reaches)
// is merged straight into the per-signature winners with its own
// discovery-order score, with no chain store in between. SearchGraph,
// which folds a rebuilt chain store instead, must return exactly what it
// returns, edge for edge and score bit for bit.
func refSearchGraph(g *graph.Graph, simScoreOf func(faults.ID) float64, opt Options) []Cycle {
	opt.defaults()
	if simScoreOf == nil {
		simScoreOf = g.ScoreFunc()
	}
	if opt.NestGroups == nil {
		opt.NestGroups = g.NestGroups()
	}
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
		score := c.mean()
		mu.Lock()
		m.refMergeBest(best, can, score)
		mu.Unlock()
	}
	m.runChains(allSeeds(m.ix.N), opt, false, nil, sink)
	return orderBest(best)
}

// refMergeBest merges one arrival into the per-signature winners,
// rendering its signature on every call. can may be a sink's scratch, so
// a winner keeps a copy.
func (m *matcher) refMergeBest(best map[string]*bestEntry, can []int, score float64) {
	if e := m.keepBest(best, m.signatureOf(can), can, score); e != nil {
		e.idx = append([]int(nil), can...)
	}
}

// refRunChains is the reference beam: every child a fresh slice, each
// level's children concatenated, fully sorted by (mean score, edge ids)
// and truncated to BeamSize. runChains must sink, near-report and flag
// truncation exactly as it does.
func (m *matcher) refRunChains(seeds []int, opt Options, through bool, near nearSink, sink chainSink) bool {
	ix := m.ix
	truncated := false
	queue := make([]ichain, 0, len(seeds))
	for _, i := range seeds {
		c := ichain{idx: []int{i}}
		if !ix.Connector[i] {
			c.injs = 1
			c.score = m.scores[i]
			if ix.FromClass[i] == faults.ClassDelay {
				c.delayInj = 1
			}
		}
		if opt.MaxDelayInjections >= 0 && int(c.delayInj) > opt.MaxDelayInjections {
			continue
		}
		if m.matchIdx(i, i) {
			closed := c
			sink(&closed)
		} else if near != nil && ix.To[i] == ix.From[i] {
			near(c.idx)
		}
		queue = append(queue, c)
	}
	for level := 1; level < opt.MaxLen && len(queue) > 0; level++ {
		next := m.refExpand(queue, opt, through, near, sink)
		sort.Slice(next, func(a, b int) bool {
			sa, sb := next[a].mean(), next[b].mean()
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

func (m *matcher) refExpand(queue []ichain, opt Options, through bool, near nearSink, sink chainSink) []ichain {
	ix := m.ix
	shards := min(opt.Workers, len(queue))
	results := make([][]ichain, shards)
	var wg sync.WaitGroup
	for w := 0; w < shards; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var local []ichain
			for qi := w; qi < len(queue); qi += shards {
				c := &queue[qi]
				row := make([]int32, len(c.idx))
				for k, e := range c.idx {
					row[k] = int32(e)
				}
				last := c.idx[len(c.idx)-1]
				for _, j32 := range ix.ByFrom[ix.To[last]] {
					j := int(j32)
					if containsEdge(row, j32) || !m.matchIdx(last, j) {
						continue
					}
					nd := c.delayInj
					if m.countsDelay(row, j) {
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
