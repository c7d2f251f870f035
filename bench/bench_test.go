package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"regexp"
	"testing"
	"time"
)

func TestMedianAndPercentile(t *testing.T) {
	cases := []struct {
		xs   []float64
		p    float64
		want float64
	}{
		{nil, 50, 0},
		{[]float64{7}, 50, 7},
		{[]float64{7}, 90, 7},
		{[]float64{3, 1, 2}, 50, 2},
		{[]float64{4, 1, 3, 2}, 50, 2.5},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11}, 90, 10},
		{[]float64{10, 20}, 90, 19},
		{[]float64{5, 1, 9}, 100, 9},
		{[]float64{5, 1, 9}, 0, 1},
	}
	for _, c := range cases {
		if got := percentile(c.xs, c.p); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("percentile(%v, %v) = %v, want %v", c.xs, c.p, got, c.want)
		}
	}
	xs := []float64{3, 1, 2}
	median(xs)
	if !reflect.DeepEqual(xs, []float64{3, 1, 2}) {
		t.Errorf("median reordered its input: %v", xs)
	}
}

func TestSelfTime(t *testing.T) {
	ms := func(n int64) int64 { return n * int64(time.Millisecond) }
	spans := []span{
		{ID: 0, Name: "root", Start: ms(0), End: ms(100), Parent: -1},
		{ID: 1, Name: "a", Start: ms(10), End: ms(40), Parent: 0},
		{ID: 2, Name: "b", Start: ms(30), End: ms(60), Parent: 0},     // overlaps a by 10ms
		{ID: 3, Name: "c", Start: ms(90), End: ms(120), Parent: 0},    // sticks out by 20ms
		{ID: 4, Name: "a.kid", Start: ms(15), End: ms(20), Parent: 1}, // a grandchild is not the root's
		{ID: 5, Name: "other", Start: ms(0), End: ms(100), Parent: -1},
	}
	want := map[int]time.Duration{
		0: 40 * time.Millisecond, // 100 - union([10,60],[90,100]) = 100 - 60
		1: 25 * time.Millisecond,
		2: 30 * time.Millisecond,
		4: 5 * time.Millisecond,
		5: 100 * time.Millisecond,
	}
	for id, w := range want {
		if got := selfTime(spans, id); got != w {
			t.Errorf("selfTime(span %d) = %v, want %v", id, got, w)
		}
	}
}

func TestTracerNestsAndSums(t *testing.T) {
	tr := newTracer()
	var inner int
	outer := tr.do("outer", func() {
		inner = tr.do("inner", func() {})
		tr.do("inner", func() {})
	})
	if tr.spans[outer].Parent != -1 || tr.spans[inner].Parent != outer {
		t.Fatalf("parents = %d, %d", tr.spans[outer].Parent, tr.spans[inner].Parent)
	}
	if n, _ := tr.count("inner"); n != 2 {
		t.Errorf("count(inner) = %d", n)
	}
	if tr.total("inner") > tr.total("outer") {
		t.Errorf("children %v outlast their parent %v", tr.total("inner"), tr.total("outer"))
	}
	if got := tr.selfOf("outer") + tr.total("inner"); got != tr.total("outer") {
		t.Errorf("self + children = %v, span = %v", got, tr.total("outer"))
	}
}

func TestWorseningAndAgree(t *testing.T) {
	lo := metric{Name: "t", Better: lower, Bound: 0.10}
	hi := metric{Name: "r", Better: higher, Bound: 0.10}
	if w := worsening(10, 11, lower); math.Abs(w-0.1) > 1e-9 {
		t.Errorf("worsening lower = %v", w)
	}
	if w := worsening(10, 9, higher); math.Abs(w-0.1) > 1e-9 {
		t.Errorf("worsening higher = %v", w)
	}
	if !agree([]float64{10, 10.9, 10.5}, lo) || agree([]float64{10, 11.2}, lo) {
		t.Error("agree(lower) is off")
	}
	if !agree([]float64{100, 91}, hi) || agree([]float64{100, 89}, hi) {
		t.Error("agree(higher) is off")
	}
}

func TestOutcomeCountsOperations(t *testing.T) {
	o := newOutcome()
	o.check(true, "fine")
	o.endOp()
	o.check(false, "bad %d", 1)
	o.check(false, "bad %d", 2)
	o.endOp()
	if o.attempted != 2 || o.failed != 1 || len(o.failures) != 2 {
		t.Fatalf("attempted=%d failed=%d failures=%v", o.attempted, o.failed, o.failures)
	}
	if _, err := o.result(endToEnd, false); err == nil {
		t.Error("an unmeasured end-to-end metric must be an error")
	}
	r, err := o.result(perLayer, true)
	if err != nil || r.Correct || len(r.Metrics) != len(perLayer) {
		t.Errorf("traced result: %+v, %v", r, err)
	}
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

func TestNamesAreWellFormedAndUnique(t *testing.T) {
	seen := make(map[string]bool)
	use := func(name string) {
		if !nameRE.MatchString(name) {
			t.Errorf("name %q is malformed", name)
		}
		if seen[name] {
			t.Errorf("name %q is used twice", name)
		}
		seen[name] = true
	}
	for _, w := range workloads {
		use(w.name)
		if len(w.why) > 200 {
			t.Errorf("%s: why has %d characters", w.name, len(w.why))
		}
	}
	for _, m := range endToEnd {
		use(m.Name)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v", m.Name, m.Bound)
		}
	}
	for _, m := range perLayer {
		use(m.Name)
	}
	for _, name := range stageNames {
		if !nameRE.MatchString(name) {
			t.Errorf("span name %q is malformed", name)
		}
	}
}

// TestBenchmarkJSONMatchesSpec pins BENCHMARK.json to what -list prints:
// the same workloads and metrics, in the same order, with the same units,
// directions and bounds.
func TestBenchmarkJSONMatchesSpec(t *testing.T) {
	data, err := os.ReadFile("../" + benchmarkFile)
	if err != nil {
		t.Fatal(err)
	}
	type namedWhy struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type layerMetric struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	var got struct {
		Command    []string      `json:"command"`
		Paths      []string      `json:"paths"`
		RunSeconds int           `json:"run_seconds"`
		Workloads  []namedWhy    `json:"workloads"`
		EndToEnd   []metric      `json:"end_to_end"`
		PerLayer   []layerMetric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatal(err)
	}
	if want := []string{"go", "run", "./bench"}; !reflect.DeepEqual(got.Command, want) {
		t.Errorf("command = %v, want %v", got.Command, want)
	}
	if want := []string{"bench"}; !reflect.DeepEqual(got.Paths, want) {
		t.Errorf("paths = %v, want %v", got.Paths, want)
	}
	if got.RunSeconds < 1 || got.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", got.RunSeconds)
	}
	var wantW []namedWhy
	for _, w := range workloads {
		wantW = append(wantW, namedWhy{w.name, w.why})
	}
	if !reflect.DeepEqual(got.Workloads, wantW) {
		t.Errorf("workloads differ:\n got %+v\nwant %+v", got.Workloads, wantW)
	}
	if !reflect.DeepEqual(got.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs:\n got %+v\nwant %+v", got.EndToEnd, endToEnd)
	}
	var wantL []layerMetric
	for _, m := range perLayer {
		wantL = append(wantL, layerMetric{m.Name, m.Unit, m.Better})
	}
	if !reflect.DeepEqual(got.PerLayer, wantL) {
		t.Errorf("per_layer differs:\n got %+v\nwant %+v", got.PerLayer, wantL)
	}
	hasSetup := false
	for _, m := range got.EndToEnd {
		hasSetup = hasSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == lower)
	}
	if !hasSetup {
		t.Error("end_to_end lacks setup_s in s, lower is better")
	}
}
