// Package cluster implements the causally-equivalent-fault machinery of
// §5.2/§A: IDF vectorization of interference sets, cosine distance,
// average-linkage hierarchical clustering, and the intra-cluster
// interference similarity score (SimScore) that drives 3PA phase three and
// the beam-search ranking.
package cluster

import (
	"math"
	"sort"

	"repro/internal/faults"
)

// Vector is a sparse, L2-normalised IDF vector over the fault corpus,
// stored as parallel id/weight slices in ascending ID order. The sorted
// representation makes every accumulation deterministically ordered by
// construction (no per-operation key sorting) and turns the pairwise
// distance -- called O(n^2) times by the hierarchical clustering -- into
// an allocation-free merge walk.
type Vector struct {
	ids []faults.ID
	ws  []float64
}

// Len returns the number of non-zero components.
func (v Vector) Len() int { return len(v.ids) }

// At returns the i-th (id, weight) component in ascending ID order.
func (v Vector) At(i int) (faults.ID, float64) { return v.ids[i], v.ws[i] }

// Get returns the weight of f, or 0 when absent.
func (v Vector) Get(f faults.ID) float64 {
	lo, hi := 0, len(v.ids)
	for lo < hi {
		mid := (lo + hi) / 2
		if v.ids[mid] < f {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(v.ids) && v.ids[lo] == f {
		return v.ws[lo]
	}
	return 0
}

// Weights returns the weight components in ascending ID order. Callers
// must not mutate the result.
func (v Vector) Weights() []float64 { return v.ws }

// IDF is an inverse-document-frequency model trained over injection
// experiments: "documents" are experiments, "words" are the additional
// faults they triggered (§A.1). Faults triggered by many different
// injections (utility-function faults) receive low weight, like stop
// words in text mining.
type IDF struct {
	n       int
	docFreq map[faults.ID]int
}

// TrainIDF fits an IDF model on the interference sets of all experiments
// run so far. Each element of interferences is the deduplicated set of
// additional faults one experiment triggered.
func TrainIDF(interferences [][]faults.ID) *IDF {
	m := &IDF{n: len(interferences), docFreq: make(map[faults.ID]int)}
	for _, intf := range interferences {
		seen := make(map[faults.ID]bool, len(intf))
		for _, f := range intf {
			if !seen[f] {
				seen[f] = true
				m.docFreq[f]++
			}
		}
	}
	return m
}

// Weight returns the smoothed IDF weight log((1+N)/(1+N_f)) (§A.1 eq. 3).
func (m *IDF) Weight(f faults.ID) float64 {
	return math.Log(float64(1+m.n) / float64(1+m.docFreq[f]))
}

// Vectorize maps an interference set to its L2-normalised IDF vector
// (§A.1 eq. 4). The zero set maps to the empty vector. Accumulation runs
// in ascending ID order: float addition is not associative, and unordered
// summation would make scores (and everything downstream of them --
// clustering, beam ranking, the reported cycle set) jitter from run to
// run.
func (m *IDF) Vectorize(intf []faults.ID) Vector {
	if len(intf) == 0 {
		return Vector{}
	}
	ids := append([]faults.ID(nil), intf...)
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	// Deduplicate in place (sorted).
	u := ids[:1]
	for _, f := range ids[1:] {
		if f != u[len(u)-1] {
			u = append(u, f)
		}
	}
	ws := make([]float64, len(u))
	norm := 0.0
	for i, f := range u {
		ws[i] = m.Weight(f)
		norm += ws[i] * ws[i]
	}
	if norm == 0 {
		return Vector{}
	}
	norm = math.Sqrt(norm)
	for i := range ws {
		ws[i] /= norm
	}
	return Vector{ids: u, ws: ws}
}

// CosineDistance returns 1 - cos(a, b), in [0, 1] for non-negative
// vectors. Two empty vectors (non-impactful injections) are identical
// (distance 0); an empty vector against a non-empty one is maximally
// distant (distance 1). The merge walk accumulates in ascending ID order
// -- the same order the map-backed implementation sorted into -- so the
// result is a pure function of the vectors, bit for bit.
func CosineDistance(a, b Vector) float64 {
	if a.Len() == 0 && b.Len() == 0 {
		return 0
	}
	if a.Len() == 0 || b.Len() == 0 {
		return 1
	}
	dot, na, nb := 0.0, 0.0, 0.0
	j := 0
	for i, f := range a.ids {
		w := a.ws[i]
		na += w * w
		for j < len(b.ids) && b.ids[j] < f {
			j++
		}
		if j < len(b.ids) && b.ids[j] == f {
			dot += w * b.ws[j]
		}
	}
	for _, w := range b.ws {
		nb += w * w
	}
	if na == 0 || nb == 0 {
		return 1
	}
	d := 1 - dot/(math.Sqrt(na)*math.Sqrt(nb))
	if d < 0 {
		return 0
	}
	if d > 1 {
		return 1
	}
	return d
}

// Hierarchical performs agglomerative average-linkage clustering over
// items with the given pairwise distance, merging while the closest pair
// of clusters is within threshold. It returns cluster membership as a
// slice of item-index groups, deterministic for a fixed input order.
//
// The pairwise distance matrix is filled serially, each cell computed
// once: the clustered items are a campaign's phase-one runs, at most one
// per fault and so at most 33 on the registered systems, far below the
// size where fanning the fill out to goroutines would pay for the
// handoff.
func Hierarchical(n int, dist func(i, j int) float64, threshold float64) [][]int {
	if n == 0 {
		return nil
	}
	// Cache the symmetric distance matrix.
	d := make([][]float64, n)
	for i := range d {
		d[i] = make([]float64, n)
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			v := dist(i, j)
			d[i][j], d[j][i] = v, v
		}
	}
	clusters := make([][]int, n)
	for i := range clusters {
		clusters[i] = []int{i}
	}
	avg := func(a, b []int) float64 {
		s := 0.0
		for _, i := range a {
			for _, j := range b {
				s += d[i][j]
			}
		}
		return s / float64(len(a)*len(b))
	}
	for len(clusters) > 1 {
		bi, bj, best := -1, -1, math.Inf(1)
		for i := 0; i < len(clusters); i++ {
			for j := i + 1; j < len(clusters); j++ {
				if v := avg(clusters[i], clusters[j]); v < best {
					bi, bj, best = i, j, v
				}
			}
		}
		if best > threshold {
			break
		}
		merged := append(append([]int{}, clusters[bi]...), clusters[bj]...)
		sort.Ints(merged)
		next := make([][]int, 0, len(clusters)-1)
		for k, c := range clusters {
			if k != bi && k != bj {
				next = append(next, c)
			}
		}
		clusters = append(next, merged)
	}
	// Deterministic output order: by smallest member index.
	sort.Slice(clusters, func(a, b int) bool { return clusters[a][0] < clusters[b][0] })
	return clusters
}

// SimScore computes the intra-cluster interference similarity (§A.3
// eq. 6): 1 minus the mean pairwise cosine distance between vectorized
// interference results of *different* faults in the cluster. When the
// cluster holds a single fault, pairs across that fault's different
// workloads are used instead, so conditional behaviour of singleton
// clusters still lowers the score. With fewer than two vectors the score
// is 1 (no evidence of diversity).
func SimScore(byFault map[faults.ID][]Vector) float64 {
	type tagged struct {
		fault faults.ID
		v     Vector
	}
	var all []tagged
	ids := make([]faults.ID, 0, len(byFault))
	for id := range byFault {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		for _, v := range byFault[id] {
			all = append(all, tagged{id, v})
		}
	}
	if len(all) < 2 {
		return 1
	}
	sum, cnt := 0.0, 0
	for i := 0; i < len(all); i++ {
		for j := i + 1; j < len(all); j++ {
			if all[i].fault == all[j].fault {
				continue
			}
			sum += CosineDistance(all[i].v, all[j].v)
			cnt++
		}
	}
	if cnt == 0 {
		// Singleton-fault cluster: fall back to same-fault pairs.
		for i := 0; i < len(all); i++ {
			for j := i + 1; j < len(all); j++ {
				sum += CosineDistance(all[i].v, all[j].v)
				cnt++
			}
		}
	}
	if cnt == 0 {
		return 1
	}
	return 1 - sum/float64(cnt)
}
