package main

import (
	"encoding/json"
	"os"
	"reflect"
	"sort"
	"testing"
	"time"
)

// spec is the part of BENCHMARK.json that names the metrics.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func readSpec(t *testing.T) spec {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	if err := json.Unmarshal(raw, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// checkPrinted fails unless r's metrics are exactly want, each with its
// unit, and r passed its checks.
func checkPrinted(t *testing.T, what string, r *run, err error, want []specMetric) {
	t.Helper()
	if err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	res := r.result()
	if !res.Correct || res.Failed != 0 {
		t.Errorf("%s: correct=%v failed=%d problems=%v", what, res.Correct, res.Failed, r.problems)
	}
	var got, names []string
	for name, m := range res.Metrics {
		got = append(got, name+" "+m.Unit)
	}
	for _, m := range want {
		names = append(names, m.Name+" "+m.Unit)
	}
	sort.Strings(got)
	sort.Strings(names)
	if !reflect.DeepEqual(got, names) {
		t.Errorf("%s printed\n%v\nwant\n%v", what, got, names)
	}
}

// TestEveryMetricPrinted runs every workload untraced, and the traced
// suite once, at a tiny size: each must print exactly the metrics
// BENCHMARK.json names, with their units, and pass its checks.
func TestEveryMetricPrinted(t *testing.T) {
	s := readSpec(t)
	if len(s.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json names %d workloads, the benchmark has %d", len(s.Workloads), len(workloads))
	}
	for _, w := range s.Workloads {
		r, err := measure(w.Name, 7, 500*time.Millisecond, false)
		checkPrinted(t, w.Name, r, err, s.EndToEnd)
	}
	r, err := measure("sim-zoo", 7, 500*time.Millisecond, true)
	checkPrinted(t, "traced", r, err, s.PerLayer)
}

// TestSimZooCounts checks that sim-zoo's inputs come from the seed alone:
// the same seed gives identical counts and another seed different ones.
func TestSimZooCounts(t *testing.T) {
	counts := func(seed uint64) []simCounts {
		r := newRun(seed, 0)
		z := runZoo(r, seed, 0, 3*len(zoo))
		if len(r.problems) > 0 {
			t.Fatalf("seed %d: %v", seed, r.problems)
		}
		return z.counts
	}
	a, b, c := counts(11), counts(11), counts(12)
	if !reflect.DeepEqual(a, b) {
		t.Errorf("seed 11 twice:\n%+v\n%+v", a, b)
	}
	if reflect.DeepEqual(a, c) {
		t.Errorf("seeds 11 and 12 gave the same counts %+v", a)
	}
}
