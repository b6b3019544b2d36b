package main

import (
	"encoding/json"
	"os"
	"reflect"
	"testing"
)

// smoke runs every workload once at 1/32 scale: one untraced rep each, plus
// one traced rep and the layer probes when trace is on.
func smoke(t *testing.T, seed int64, trace int) []*result {
	t.Helper()
	o := options{seed: seed, seconds: 0.001, trace: trace, scale: 32, scratch: t.TempDir()}
	results, err := measure(workloads, params{seed: seed, scale: o.scale}, o, newTracer())
	if err != nil {
		t.Fatal(err)
	}
	for _, res := range results {
		if res.sim.failed != 0 {
			t.Errorf("seed %d, %s: %d of %d calls failed, first: %v",
				seed, res.workload, res.sim.failed, res.sim.attempted, res.firstErr)
		}
	}
	return results
}

// TestSmoke checks, at a scale small enough for every test run, that each
// workload verifies, that every declared metric is emitted for every
// workload, and that one seed gives bit-identical simulated metrics —
// traced or not — while a second seed still verifies.
func TestSmoke(t *testing.T) {
	if err := checkNames(); err != nil {
		t.Fatal(err)
	}
	full := smoke(t, 1988, -1)
	for _, res := range full {
		for _, m := range endToEnd {
			if _, ok := res.endToEnd[m.Name]; !ok {
				t.Errorf("%s: end-to-end metric %s not emitted", res.workload, m.Name)
			}
		}
		for _, m := range perLayer {
			if _, ok := res.perLayer[m.Name]; !ok {
				t.Errorf("%s: per-layer metric %s not emitted", res.workload, m.Name)
			}
		}
		if got, want := len(res.endToEnd), len(endToEnd); got != want {
			t.Errorf("%s: %d end-to-end metrics emitted, %d declared", res.workload, got, want)
		}
		if got, want := len(res.perLayer), len(perLayer); got != want {
			t.Errorf("%s: %d per-layer metrics emitted, %d declared", res.workload, got, want)
		}
	}
	again := smoke(t, 1988, 0)
	for i, res := range again {
		if res.sim != full[i].sim {
			t.Errorf("%s: simulated metrics differ between two runs of one seed:\n %+v\n %+v",
				res.workload, full[i].sim, res.sim)
		}
	}
	other := smoke(t, 7, 0)
	for i, res := range other {
		if res.sim.msPerOp == full[i].sim.msPerOp {
			t.Errorf("%s: sim_ms_per_op is the same for two seeds; the seed no longer reaches the inputs", res.workload)
		}
	}
}

// TestManifest holds BENCHMARK.json to the tables the program prints from.
func TestManifest(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var manifest struct {
		Paths     []string `json:"paths"`
		Workloads []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metricSpec `json:"end_to_end"`
		PerLayer []metricSpec `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &manifest); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(manifest.Paths, []string{"benchmark"}) {
		t.Errorf("paths = %v", manifest.Paths)
	}
	if len(manifest.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(manifest.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if got := manifest.Workloads[i]; got.Name != w.name || got.Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, program has %s: %s", i, got, w.name, w.why)
		}
		if len(w.why) > 200 {
			t.Errorf("workload %s: why is %d characters, limit 200", w.name, len(w.why))
		}
	}
	if !reflect.DeepEqual(manifest.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs:\n json %+v\n code %+v", manifest.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(manifest.PerLayer, perLayer) {
		t.Errorf("per_layer differs:\n json %+v\n code %+v", manifest.PerLayer, perLayer)
	}
}
