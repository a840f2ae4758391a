package main

import (
	"encoding/json"
	"os"
	"testing"
)

// TestBenchmarkJSONMatchesSpec keeps the driver's view of the benchmark
// (../BENCHMARK.json) and the program's (spec.go) the same.
func TestBenchmarkJSONMatchesSpec(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name, Unit, Better string
		Bound              *float64
	}
	var b struct {
		Command    []string
		Paths      []string
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metric `json:"end_to_end"`
		PerLayer   []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Paths) != 1 || b.Paths[0] != "benchmark" || b.RunSeconds != defaultSeconds {
		t.Errorf("paths %v run_seconds %d", b.Paths, b.RunSeconds)
	}
	if len(b.Command) != 2 || b.Command[0] != "bash" || b.Command[1] != "benchmark/run.sh" {
		t.Errorf("command %v", b.Command)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("%d workloads, spec.go has %d", len(b.Workloads), len(workloads))
	}
	for i, w := range b.Workloads {
		if w.Name != workloads[i].Name || w.Why != workloads[i].Why || len(w.Why) > 200 {
			t.Errorf("workload %d: %+v differs from spec.go", i, w)
		}
	}
	same := func(kind string, got []metric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%d %s metrics, spec.go has %d", len(got), kind, len(want))
		}
		for i, m := range got {
			w := want[i]
			if m.Name != w.Name || m.Unit != w.Unit || m.Better != w.Better {
				t.Errorf("%s metric %d: %+v differs from spec.go %+v", kind, i, m, w)
			}
			if bounded != (m.Bound != nil) || (bounded && *m.Bound != w.Bound) {
				t.Errorf("%s metric %s: bound differs from spec.go", kind, m.Name)
			}
		}
	}
	same("end_to_end", b.EndToEnd, endToEnd, true)
	same("per_layer", b.PerLayer, perLayer, false)
}
