package main

import (
	"encoding/json"
	"os"
	"testing"
	"time"
)

func TestQuantileNearestRank(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct {
		q      float64
		want   float64
		beyond int
	}{
		{0.5, 5, 5},
		{0.9, 9, 1},
		{0.91, 10, 0},
		{0.99, 10, 0},
		{0, 1, 9},
		{1, 10, 0},
	} {
		if got := quantile(xs, c.q); got != c.want {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
		if got := beyond(len(xs), c.q); got != c.beyond {
			t.Errorf("beyond(10, %v) = %d, want %d", c.q, got, c.beyond)
		}
	}
	// p99 of 1000 samples leaves exactly ten beyond it.
	if got := beyond(1000, 0.99); got != 10 {
		t.Errorf("beyond(1000, 0.99) = %d, want 10", got)
	}
}

func TestTailLeavesTenBeyond(t *testing.T) {
	if _, _, ok := tail(make([]float64, minBeyond)); ok {
		t.Fatal("tail of 10 samples must not exist")
	}
	xs := make([]float64, 4000)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	v, lvl, ok := tail(xs)
	if !ok || v != 3990 || lvl != 0.9975 {
		t.Fatalf("tail = %v, %v, %v; want 3990, 0.9975, true", v, lvl, ok)
	}
	if n := len(xs) - int(v); n != minBeyond {
		t.Fatalf("%d samples beyond the tail, want %d", n, minBeyond)
	}
	if got := beyond(len(xs), lvl); got != minBeyond {
		t.Fatalf("beyond at the tail level = %d, want %d", got, minBeyond)
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v", got)
	}
}

func TestDueTimesDoNotDrift(t *testing.T) {
	// 1/3 ms does not divide a nanosecond grid: accumulating the interval
	// would drift; computing each due time from its index does not.
	const rate = 3000
	if got := dueOffset(rate, rate); got != time.Second {
		t.Errorf("request %d due at %v, want 1s", rate, got)
	}
	if got := dueOffset(1, rate); got != 333333*time.Nanosecond {
		t.Errorf("request 1 due at %v", got)
	}
	for i := 1; i < 10*rate; i++ {
		if dueOffset(i, rate) <= dueOffset(i-1, rate) {
			t.Fatalf("due times not increasing at %d", i)
		}
	}
	if got := stepRequests(400, 12500*time.Millisecond); got != 5000 {
		t.Errorf("stepRequests(400, 12.5s) = %d, want 5000", got)
	}
	// A request's latency runs from its due time, so a late send counts.
	s := sample{due: time.Unix(0, 0), sent: time.Unix(0, 7e6), done: time.Unix(0, 9e6)}
	if got := s.latencyMS(); got != 9 {
		t.Errorf("latency from due time = %v ms, want 9", got)
	}
}

func TestSelfTimeSubtractsCoveredChildren(t *testing.T) {
	parent := span{ID: 1, Start: 0, End: 100}
	kids := []span{
		{Parent: 1, Start: 10, End: 30},
		{Parent: 1, Start: 20, End: 40},  // overlaps the first: counted once
		{Parent: 1, Start: 90, End: 120}, // runs past the parent: clipped
		{Parent: 1, Start: 50, End: 50},  // empty
	}
	if got := selfTime(parent, kids); got != 100-30-10 {
		t.Errorf("self time = %d, want 60", got)
	}
	if got := selfTime(parent, nil); got != 100 {
		t.Errorf("self time without children = %d, want 100", got)
	}
}

func TestTracerLayers(t *testing.T) {
	tr := newTracer()
	base := tr.t0
	root := tr.add("exp.cell", "a", 0, base, base.Add(10*time.Millisecond))
	tr.add("sim.run", "a", root, base.Add(2*time.Millisecond), base.Add(8*time.Millisecond))
	ls := tr.layers()
	if got := ls["exp.cell"].Self; got != int64(4*time.Millisecond) {
		t.Errorf("exp.cell self = %v", time.Duration(got))
	}
	if got := ls["sim.run"].Self; got != int64(6*time.Millisecond) {
		t.Errorf("sim.run self = %v", time.Duration(got))
	}
	var nilTracer *tracer
	ran := false
	nilTracer.do("x", "", nilTracer.begin("y", "", 0), func() { ran = true })
	if !ran {
		t.Error("a nil tracer must still run the traced call")
	}
}

// TestCatalogMatchesBenchmarkJSON keeps BENCHMARK.json and the metrics the
// result line carries in step.
func TestCatalogMatchesBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type entry struct{ Name, Unit, Better string }
	var b struct {
		EndToEnd []entry `json:"end_to_end"`
		PerLayer []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	want := map[int][]entry{}
	for _, d := range catalog {
		want[d.kind] = append(want[d.kind], entry{d.name, d.unit, d.better})
	}
	for kind, got := range map[int][]entry{endToEnd: b.EndToEnd, perLayer: b.PerLayer} {
		if len(got) != len(want[kind]) {
			t.Fatalf("kind %d: BENCHMARK.json lists %d metrics, catalog %d", kind, len(got), len(want[kind]))
		}
		for i := range got {
			if got[i] != want[kind][i] {
				t.Errorf("kind %d entry %d: BENCHMARK.json %+v, catalog %+v", kind, i, got[i], want[kind][i])
			}
		}
	}
}
