package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"testing"
	"time"

	"github.com/ipa-grid/ipa/internal/aida"
)

// TestMetricsMatchBenchmarkJSON keeps the metric lists here and in the
// repository's BENCHMARK.json identical, names and units.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the benchmark reports %d", kind, len(got), len(want))
		}
		for i, d := range want {
			if got[i].Name != d.name || got[i].Unit != d.unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s [%s], benchmark %s [%s]", kind, i, got[i].Name, got[i].Unit, d.name, d.unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, want %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.name {
			t.Errorf("workload %d: BENCHMARK.json %q, benchmark %q", i, spec.Workloads[i].Name, w.name)
		}
	}
}

// tiny shrinks a workload for the smoke test: same session shape, a
// fraction of the events.
func (w workload) tiny() workload {
	w.events = 600
	if w.cycles > 0 {
		w.cycles = 3
	}
	return w
}

// TestSmoke runs every workload at a tiny size, untraced and traced, and
// checks the result line's schema and the correctness gate.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("stands up grids")
	}
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			w, traced := w.tiny(), traced
			t.Run(fmt.Sprintf("%s/trace=%v", w.name, traced), func(t *testing.T) {
				res, err := measure(w, 7, 300*time.Millisecond, traced, t.TempDir())
				if err != nil {
					t.Fatal(err)
				}
				if res.attempted == 0 || res.failed != 0 {
					t.Fatalf("attempted %d failed %d: %v", res.attempted, res.failed, res.errs)
				}
				if miss := res.missing(); len(miss) > 0 {
					t.Fatalf("metrics not produced: %v", miss)
				}
				line, err := json.Marshal(res.contract())
				if err != nil {
					t.Fatal(err)
				}
				var got struct {
					Correct           *bool
					Attempted, Failed *int
					Metrics           map[string]struct {
						Value *float64
						Unit  string
					}
				}
				if err := json.Unmarshal(line, &got); err != nil {
					t.Fatal(err)
				}
				if got.Correct == nil || !*got.Correct || got.Attempted == nil || got.Failed == nil {
					t.Fatalf("result line %s", line)
				}
				if len(got.Metrics) != len(res.defs()) {
					t.Fatalf("result line has %d metrics, want %d", len(got.Metrics), len(res.defs()))
				}
				for _, d := range res.defs() {
					m, ok := got.Metrics[d.name]
					if !ok || m.Value == nil || m.Unit != d.unit {
						t.Errorf("metric %s: %+v", d.name, m)
					}
				}
				if !traced {
					for _, d := range endToEnd {
						if v := res.metrics[d.name].v; !(v > 0) {
							t.Errorf("end-to-end %s = %v, want > 0", d.name, v)
						}
					}
					return
				}
				var share float64
				for _, k := range cpuShareKeys() {
					share += res.metrics["cpu_share."+k].v
				}
				if math.Abs(share-1) > 1e-9 {
					t.Errorf("cpu shares sum to %v", share)
				}
				if c := res.metrics["trace.coverage_frac"].v; c < 0.95 || c > 1.0001 {
					t.Errorf("trace coverage %v, want in [0.95, 1]", c)
				}
			})
		}
	}
}

// TestSameTreeRejectsDifferences checks the correctness gate catches a
// missing fill, an extra object and a moved entry.
func TestSameTreeRejectsDifferences(t *testing.T) {
	build := func(xs ...float64) *aida.Tree {
		tree := aida.NewTree()
		h, err := tree.H1D("/d", "h", "h", 10, 0, 10)
		if err != nil {
			t.Fatal(err)
		}
		for _, x := range xs {
			h.Fill(x)
		}
		return tree
	}
	want := build(1, 2, 2, 11)
	if err := sameTree(build(2, 11, 1, 2), want); err != nil {
		t.Fatalf("same fills in another order: %v", err)
	}
	if sameTree(build(1, 2, 11), want) == nil {
		t.Error("missing fill accepted")
	}
	if sameTree(build(1, 2, 3, 11), want) == nil {
		t.Error("moved entry accepted")
	}
	extra := build(1, 2, 2, 11)
	if _, err := extra.H1D("/d", "g", "g", 10, 0, 10); err != nil {
		t.Fatal(err)
	}
	if sameTree(extra, want) == nil {
		t.Error("extra object accepted")
	}
}

// TestParseTraces attributes samples to the innermost repository frame.
func TestParseTraces(t *testing.T) {
	out := []byte(`File: perfbench
Type: cpu
-----------+-------------------------------------------------------
      30ms   runtime.mallocgc
             github.com/ipa-grid/ipa/internal/events.scriptEvent
             github.com/ipa-grid/ipa/internal/script.(*Analysis).Process
-----------+-------------------------------------------------------
      10ms   syscall.Syscall
             github.com/ipa-grid/ipa/internal/dataset.(*Iterator).Next
-----------+-------------------------------------------------------
      10ms   runtime.futex
             runtime.mcall
-----------+-------------------------------------------------------
`)
	got, err := parseTraces(out)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{"events": 0.6, "dataset": 0.2, "runtime": 0.2}
	for k, v := range want {
		if math.Abs(got[k]-v) > 1e-12 {
			t.Errorf("%s share %v, want %v (all %v)", k, got[k], v, got)
		}
	}
}
