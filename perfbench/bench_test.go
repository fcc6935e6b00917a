package main

import (
	"encoding/json"
	"os"
	"testing"
	"time"
)

// TestSmoke runs every workload briefly, untraced and traced, with its
// checks, and checks that each run prints exactly its declared metrics.
func TestSmoke(t *testing.T) {
	for _, name := range workloadNames("all") {
		for _, traced := range []bool{false, true} {
			rep, err := runOne(name, 1, 200*time.Millisecond, traced)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", name, traced, err)
			}
			if !rep.Correct || rep.Failed != 0 || rep.Attempted == 0 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d", name, traced, rep.Correct, rep.Attempted, rep.Failed)
			}
			want := endToEnd
			if traced {
				want = perLayer
			}
			if len(rep.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics, want %d", name, traced, len(rep.Metrics), len(want))
			}
			for _, d := range want {
				if m, ok := rep.Metrics[d.name]; !ok || m.Unit != d.unit {
					t.Errorf("%s traced=%v: metric %s = %+v, want unit %s", name, traced, d.name, m, d.unit)
				}
			}
		}
	}
}

// TestBenchmarkJSON checks that BENCHMARK.json declares the metrics the
// program prints, and only workloads it can run.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		got  []struct{ Name, Unit string }
		want []metricDef
	}{{b.EndToEnd, endToEnd}, {b.PerLayer, perLayer}} {
		if len(c.got) != len(c.want) {
			t.Fatalf("BENCHMARK.json lists %d metrics, the program %d", len(c.got), len(c.want))
		}
		for i, m := range c.got {
			if m.Name != c.want[i].name || m.Unit != c.want[i].unit {
				t.Errorf("metric %d: BENCHMARK.json %s/%s, program %s/%s", i, m.Name, m.Unit, c.want[i].name, c.want[i].unit)
			}
		}
	}
	names := workloadNames("all")
	if len(b.Workloads) != len(names) {
		t.Fatalf("BENCHMARK.json lists %d workloads, want %v", len(b.Workloads), names)
	}
	for i, w := range b.Workloads {
		if w.Name != names[i] {
			t.Errorf("workload %d is %s, want %s", i, w.Name, names[i])
		}
	}
}

// TestExactlyOneToN pins the mutual-exclusion check on what it must
// reject: a value written twice (two holders) and a value never written.
func TestExactlyOneToN(t *testing.T) {
	for _, c := range []struct {
		wrote []int64
		ok    bool
	}{
		{[]int64{3, 1, 2}, true},
		{nil, true},
		{[]int64{1, 2, 2, 3}, false},
		{[]int64{1, 3}, false},
	} {
		if err := exactlyOneToN(c.wrote); (err == nil) != c.ok {
			t.Errorf("exactlyOneToN(%v) = %v, want ok=%v", c.wrote, err, c.ok)
		}
	}
}

// TestQuartiles pins the steadiness mode's quartiles to Python's
// statistics.quantiles(range(1, 11), n=4) = [2.75, 5.5, 8.25].
func TestQuartiles(t *testing.T) {
	v := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	if q1, q2, q3 := quartiles(v); q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
}
