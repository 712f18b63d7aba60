package main

import (
	"encoding/json"
	"math"
	"os"
	"slices"
	"testing"
	"time"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // 100..1, unsorted
	}
	for _, c := range []struct{ q, want float64 }{
		{0.01, 1}, {0.5, 50}, {0.99, 99}, {1, 100},
	} {
		if got := percentile(slices.Clone(xs), c.q); got != c.want {
			t.Errorf("percentile(1..100, %v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := percentile([]float64{7}, 0.99); got != 7 {
		t.Errorf("percentile of one sample = %v, want 7", got)
	}
	if got := percentile(nil, 0.5); !math.IsNaN(got) {
		t.Errorf("percentile of no samples = %v, want NaN", got)
	}
	// p50 of an even count is the lower middle sample: a measured value.
	if got := percentile([]float64{4, 1, 3, 2}, 0.5); got != 2 {
		t.Errorf("percentile([1..4], 0.5) = %v, want 2", got)
	}
}

func TestMedian(t *testing.T) {
	xs := []float64{3, 1, 2}
	if got := median(xs); got != 2 {
		t.Errorf("median(3,1,2) = %v, want 2", got)
	}
	if !slices.Equal(xs, []float64{3, 1, 2}) {
		t.Errorf("median reordered its input: %v", xs)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median(1..4) = %v, want 2.5", got)
	}
	if got := median(nil); !math.IsNaN(got) {
		t.Errorf("median() = %v, want NaN", got)
	}
}

func TestRatio(t *testing.T) {
	if got := ratio(3, 4); got != 0.75 {
		t.Errorf("ratio(3, 4) = %v", got)
	}
	if got := ratio(3, 0); got != 0 {
		t.Errorf("ratio(3, 0) = %v, want 0", got)
	}
}

func TestSelfTime(t *testing.T) {
	p := interval{100, 200}
	for _, c := range []struct {
		name     string
		children []interval
		want     int64
	}{
		{"no children", nil, 100},
		{"disjoint", []interval{{110, 120}, {150, 180}}, 60},
		{"overlapping", []interval{{110, 150}, {140, 160}}, 50},
		{"nested", []interval{{110, 190}, {120, 130}}, 20},
		{"adjacent", []interval{{100, 150}, {150, 200}}, 0},
		{"sticking out", []interval{{50, 120}, {190, 300}}, 70},
		{"outside", []interval{{10, 20}, {200, 250}}, 100},
		{"unsorted", []interval{{170, 180}, {110, 120}}, 80},
	} {
		if got := selfTime(p, c.children); got != c.want {
			t.Errorf("%s: selfTime = %d, want %d", c.name, got, c.want)
		}
	}
}

// TestCollectLayers records one shm-pair-shaped op with a lane and checks
// that the layers' self times add up to the op's duration.
func TestCollectLayers(t *testing.T) {
	spans := []span{
		{Name: spBenchOp, Parent: -1, Start: 0, End: 100},
		{Name: spCoreInject, Parent: 0, Start: 2, End: 30},
		{Name: spCoreWait, Parent: 0, Start: 31, End: 97},
		{Name: spBenchOp, Parent: -1, Start: 110, End: 150},
		{Name: spCoreInject, Parent: 3, Start: 110, End: 120},
		{Name: spCoreWait, Parent: 3, Start: 120, End: 150},
	}
	lt := collectLayers([][]span{spans})
	if want := []float64{0.006, 0}; !slices.Equal(lt.self[spBenchOp], want) {
		t.Errorf("bench.op self = %v, want %v", lt.self[spBenchOp], want)
	}
	if want := []float64{0.028, 0.01}; !slices.Equal(lt.dur[spCoreInject], want) {
		t.Errorf("core.inject durations = %v, want %v", lt.dur[spCoreInject], want)
	}
	total := 0.0
	for n := range lt.self {
		total += sum(lt.self[n])
	}
	if root := us(rootTime([][]span{spans})); math.Abs(total-root) > 1e-12 {
		t.Errorf("self times sum to %v us, root spans to %v us", total, root)
	}
	if n := len(lt.dur[spCoreWait]); n != 2 {
		t.Errorf("core.wait count = %d, want 2", n)
	}
}

func TestLaneNesting(t *testing.T) {
	var off *lane
	if i := off.begin(spBenchOp, 1); i != -1 {
		t.Fatalf("nil lane begin = %d, want -1", i)
	}
	off.end(-1) // must not panic
	l := newLane(3, time.Now())
	op := l.begin(spBenchOp, 1)
	in := l.begin(spCoreInject, 1)
	l.end(in)
	wt := l.begin(spCoreWait, 1)
	l.end(wt)
	l.end(op)
	if len(l.open) != 0 {
		t.Fatalf("%d spans left open", len(l.open))
	}
	for i, want := range []int32{-1, 0, 0} {
		if s := l.spans[i]; s.Parent != want || s.Rank != 3 || s.End < s.Start {
			t.Errorf("span %d = %+v, want parent %d on rank 3", i, s, want)
		}
	}
}

func TestCountersSub(t *testing.T) {
	a := counters{Passes: 10, EmptyPasses: 4, Frames: 7, RingRecords: 9}
	a.Tasks[2] = 5
	b := counters{Passes: 3, EmptyPasses: 1, Frames: 2, RingRecords: 9}
	b.Tasks[2] = 1
	d := a.sub(b)
	if d.Passes != 7 || d.EmptyPasses != 3 || d.Frames != 5 || d.RingRecords != 0 || d.Tasks[2] != 4 {
		t.Errorf("a - b = %+v", d)
	}
	d.add(b)
	if d != a {
		t.Errorf("(a - b) + b = %+v, want %+v", d, a)
	}
}

// TestPerLayerWithoutData checks that a traced run with no spans or
// counters, as for a layer the named workload does not reach, reports 0
// for every metric of a single layer.
func TestPerLayerWithoutData(t *testing.T) {
	every := map[string]bool{ // measured on every workload
		"core.progress_useful_frac": true, "obs.trace_overhead_frac": true, "trace.residual_frac": true,
	}
	got := perLayer(&phases{untraced: &pooled{}, traced: &pooled{ops: 100, rounds: 10}})
	for _, m := range layerMetrics {
		if v := got[m.name].Value; !every[m.name] && v != 0 {
			t.Errorf("%s = %v with no data, want 0", m.name, v)
		}
	}
}

// TestMetricsMatchBenchmarkJSON keeps the reported names and units in step
// with the metric lists the benchmark declares.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var decl struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &decl); err != nil {
		t.Fatal(err)
	}
	e2e := endToEnd([]repSummary{{1, 1, 1, 1}})
	if len(e2e) != len(decl.EndToEnd) {
		t.Errorf("reports %d end-to-end metrics, BENCHMARK.json declares %d", len(e2e), len(decl.EndToEnd))
	}
	for _, m := range decl.EndToEnd {
		if got, ok := e2e[m.Name]; !ok || got.Unit != m.Unit {
			t.Errorf("end-to-end %s: reported %+v, declared unit %s", m.Name, got, m.Unit)
		}
	}
	if len(layerMetrics) != len(decl.PerLayer) {
		t.Errorf("reports %d per-layer metrics, BENCHMARK.json declares %d", len(layerMetrics), len(decl.PerLayer))
	}
	for i, m := range decl.PerLayer {
		if i < len(layerMetrics) && (layerMetrics[i].name != m.Name || layerMetrics[i].unit != m.Unit) {
			t.Errorf("per-layer %d: reported %s [%s], declared %s [%s]", i, layerMetrics[i].name, layerMetrics[i].unit, m.Name, m.Unit)
		}
	}
}

// TestEndToEndIsMedianOverReps checks that one outlying rep moves no
// end-to-end metric.
func TestEndToEndIsMedianOverReps(t *testing.T) {
	mk := func(setup float64, ops int64, lat ...float64) rep {
		return rep{setup: setup, ranks: []rankResult{{Ops: ops, Elapsed: 1e9, Unit: lat}}}
	}
	var rs []repSummary
	for _, r := range []rep{
		mk(0.1, 100, 1, 2, 3, 100),
		mk(0.2, 200, 2, 3, 4, 200),
		mk(9.0, 1, 500, 600, 700, 800), // a rep caught by a stall
	} {
		rs = append(rs, summarize(r))
	}
	got := endToEnd(rs)
	for name, want := range map[string]float64{"setup_s": 0.2, "ops_s": 100, "lat_p50_us": 3, "lat_p90_us": 200} {
		if got[name].Value != want {
			t.Errorf("%s = %v, want %v", name, got[name].Value, want)
		}
	}
}

func TestDHTKeysDistinct(t *testing.T) {
	seen := map[uint64]bool{}
	for r := 0; r < 2; r++ {
		for i := uint64(0); i < 1<<12; i++ {
			k := dhtKey(42, int32(r), i)
			if seen[k] {
				t.Fatalf("key %#x repeats (rank %d, i %d)", k, r, i)
			}
			seen[k] = true
		}
	}
}
