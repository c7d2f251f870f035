package cluster

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"repro/internal/faults"
)

func ids(ss ...string) []faults.ID {
	out := make([]faults.ID, len(ss))
	for i, s := range ss {
		out[i] = faults.ID(s)
	}
	return out
}

func TestIDFWeightsCommonFaultsLower(t *testing.T) {
	// f.common appears in every experiment, f.rare in one.
	corpus := [][]faults.ID{
		ids("f.common", "f.rare"),
		ids("f.common"),
		ids("f.common"),
		ids("f.common"),
	}
	m := TrainIDF(corpus)
	if wc, wr := m.Weight("f.common"), m.Weight("f.rare"); wc >= wr {
		t.Fatalf("common weight %v >= rare weight %v", wc, wr)
	}
	if w := m.Weight("f.unseen"); w <= m.Weight("f.rare") {
		t.Errorf("unseen fault should weigh most: %v", w)
	}
}

func TestIDFSmoothingNoZeroDivision(t *testing.T) {
	m := TrainIDF(nil)
	if w := m.Weight("f.x"); math.IsInf(w, 0) || math.IsNaN(w) {
		t.Fatalf("weight on empty corpus = %v", w)
	}
}

func TestIDFDuplicatesInOneExperimentCountOnce(t *testing.T) {
	m := TrainIDF([][]faults.ID{ids("f.a", "f.a", "f.a"), ids("f.b")})
	if m.docFreq["f.a"] != 1 {
		t.Fatalf("docFreq = %d, want 1", m.docFreq["f.a"])
	}
}

func TestVectorizeL2Normalised(t *testing.T) {
	m := TrainIDF([][]faults.ID{ids("f.a", "f.b"), ids("f.a"), ids("f.c")})
	v := m.Vectorize(ids("f.a", "f.b", "f.c"))
	norm := 0.0
	for _, w := range v.Weights() {
		norm += w * w
	}
	if math.Abs(norm-1) > 1e-12 {
		t.Fatalf("|v|^2 = %v, want 1", norm)
	}
	if v.Get("f.a") >= v.Get("f.c") {
		t.Error("frequent fault should have smaller normalised weight")
	}
}

func TestVectorizeEmptySet(t *testing.T) {
	m := TrainIDF([][]faults.ID{ids("f.a")})
	if v := m.Vectorize(nil); v.Len() != 0 {
		t.Fatalf("empty interference vector = %v", v)
	}
}

func TestCosineDistanceCases(t *testing.T) {
	m := TrainIDF([][]faults.ID{ids("f.a", "f.b"), ids("f.c"), ids("f.d")})
	va := m.Vectorize(ids("f.a", "f.b"))
	vb := m.Vectorize(ids("f.a", "f.b"))
	vc := m.Vectorize(ids("f.c", "f.d"))
	if d := CosineDistance(va, vb); d > 1e-12 {
		t.Errorf("identical sets distance = %v, want 0", d)
	}
	if d := CosineDistance(va, vc); math.Abs(d-1) > 1e-12 {
		t.Errorf("disjoint sets distance = %v, want 1", d)
	}
	if d := CosineDistance(Vector{}, Vector{}); d != 0 {
		t.Errorf("empty-empty distance = %v, want 0 (non-impactful injections cluster)", d)
	}
	if d := CosineDistance(Vector{}, va); d != 1 {
		t.Errorf("empty vs non-empty = %v, want 1", d)
	}
}

func TestCosineDistanceRangeProperty(t *testing.T) {
	f := func(a, b []uint8) bool {
		mk := func(raw []uint8) []faults.ID {
			var out []faults.ID
			for _, r := range raw {
				out = append(out, faults.ID(fmt.Sprintf("f.%d", r%16)))
			}
			return out
		}
		sa, sb := mk(a), mk(b)
		m := TrainIDF([][]faults.ID{sa, sb})
		d := CosineDistance(m.Vectorize(sa), m.Vectorize(sb))
		return d >= 0 && d <= 1 && !math.IsNaN(d)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestCosineDistanceSymmetryProperty(t *testing.T) {
	f := func(a, b []uint8) bool {
		mk := func(raw []uint8) []faults.ID {
			var out []faults.ID
			for _, r := range raw {
				out = append(out, faults.ID(fmt.Sprintf("f.%d", r%8)))
			}
			return out
		}
		m := TrainIDF([][]faults.ID{mk(a), mk(b)})
		va, vb := m.Vectorize(mk(a)), m.Vectorize(mk(b))
		return math.Abs(CosineDistance(va, vb)-CosineDistance(vb, va)) < 1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestHierarchicalTwoObviousGroups(t *testing.T) {
	// Items 0-2 mutually close, 3-5 mutually close, groups far apart.
	dist := func(i, j int) float64 {
		if (i < 3) == (j < 3) {
			return 0.1
		}
		return 0.9
	}
	groups := Hierarchical(6, dist, 0.5)
	if len(groups) != 2 {
		t.Fatalf("groups = %v, want 2 clusters", groups)
	}
	if len(groups[0]) != 3 || groups[0][0] != 0 || groups[1][0] != 3 {
		t.Fatalf("groups = %v", groups)
	}
}

func TestHierarchicalThresholdZeroKeepsSingletonsApart(t *testing.T) {
	dist := func(i, j int) float64 { return 1 }
	groups := Hierarchical(4, dist, 0.5)
	if len(groups) != 4 {
		t.Fatalf("groups = %v, want 4 singletons", groups)
	}
}

func TestHierarchicalAllIdenticalMergeToOne(t *testing.T) {
	dist := func(i, j int) float64 { return 0 }
	groups := Hierarchical(5, dist, 0.5)
	if len(groups) != 1 || len(groups[0]) != 5 {
		t.Fatalf("groups = %v, want one cluster of 5", groups)
	}
}

func TestHierarchicalEmpty(t *testing.T) {
	if g := Hierarchical(0, nil, 0.5); g != nil {
		t.Fatalf("groups = %v, want nil", g)
	}
}

func TestHierarchicalPartitionProperty(t *testing.T) {
	// Property: output is a partition of 0..n-1 regardless of distances.
	f := func(raw []uint8, thr uint8) bool {
		n := len(raw)
		if n == 0 || n > 20 {
			return true
		}
		dist := func(i, j int) float64 {
			return float64(raw[(i*31+j*17)%n]%100) / 100
		}
		groups := Hierarchical(n, dist, float64(thr%100)/100)
		seen := make(map[int]bool)
		for _, g := range groups {
			for _, i := range g {
				if seen[i] {
					return false
				}
				seen[i] = true
			}
		}
		return len(seen) == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestSimScoreIdenticalInterferences(t *testing.T) {
	m := TrainIDF([][]faults.ID{ids("f.x"), ids("f.x")})
	v := m.Vectorize(ids("f.x"))
	score := SimScore(map[faults.ID][]Vector{
		"f.a": {v},
		"f.b": {v},
	})
	if math.Abs(score-1) > 1e-12 {
		t.Fatalf("score = %v, want 1 for identical interferences", score)
	}
}

func TestSimScoreDisjointInterferences(t *testing.T) {
	m := TrainIDF([][]faults.ID{ids("f.x"), ids("f.y")})
	score := SimScore(map[faults.ID][]Vector{
		"f.a": {m.Vectorize(ids("f.x"))},
		"f.b": {m.Vectorize(ids("f.y"))},
	})
	if math.Abs(score) > 1e-12 {
		t.Fatalf("score = %v, want 0 for disjoint interferences", score)
	}
}

func TestSimScoreSingletonFaultUsesOwnWorkloads(t *testing.T) {
	// One fault injected into two workloads with different consequences:
	// conditional causality must lower the score below 1.
	m := TrainIDF([][]faults.ID{ids("f.x"), ids("f.y")})
	score := SimScore(map[faults.ID][]Vector{
		"f.a": {m.Vectorize(ids("f.x")), m.Vectorize(ids("f.y"))},
	})
	if score > 0.01 {
		t.Fatalf("score = %v, want ~0 for conditional singleton", score)
	}
}

func TestSimScoreSingleVector(t *testing.T) {
	m := TrainIDF([][]faults.ID{ids("f.x")})
	score := SimScore(map[faults.ID][]Vector{"f.a": {m.Vectorize(ids("f.x"))}})
	if score != 1 {
		t.Fatalf("score = %v, want 1 with no pairs", score)
	}
}

func TestSimScoreRangeProperty(t *testing.T) {
	f := func(raw [][]uint8) bool {
		if len(raw) == 0 || len(raw) > 8 {
			return true
		}
		var corpus [][]faults.ID
		byFault := make(map[faults.ID][]Vector)
		for fi, sets := range raw {
			var set []faults.ID
			for _, r := range sets {
				set = append(set, faults.ID(fmt.Sprintf("f.%d", r%10)))
			}
			corpus = append(corpus, set)
			fid := faults.ID(fmt.Sprintf("inj.%d", fi%3))
			m := TrainIDF(corpus)
			byFault[fid] = append(byFault[fid], m.Vectorize(set))
		}
		s := SimScore(byFault)
		return s >= 0 && s <= 1 && !math.IsNaN(s)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestHierarchicalParallelFillSameClusters runs Hierarchical twice on
// a corpus of 96 vectors and checks both runs cluster identically.
func TestHierarchicalParallelFillSameClusters(t *testing.T) {
	const n = 96
	corpus := make([][]faults.ID, n)
	for i := range corpus {
		corpus[i] = ids(
			fmt.Sprintf("f.shared%d", i%5),
			fmt.Sprintf("f.own%d", i/8),
		)
	}
	idf := TrainIDF(corpus)
	vecs := make([]Vector, n)
	for i, set := range corpus {
		vecs[i] = idf.Vectorize(set)
	}
	dist := func(i, j int) float64 { return CosineDistance(vecs[i], vecs[j]) }

	got := Hierarchical(n, dist, 0.5)
	again := Hierarchical(n, dist, 0.5)
	if fmt.Sprint(got) != fmt.Sprint(again) {
		t.Fatalf("Hierarchical not deterministic:\n%v\n%v", got, again)
	}
}
