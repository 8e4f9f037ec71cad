package main

import (
	"encoding/json"
	"os"
	"strings"
	"testing"
	"time"
)

// smoke is a short run of one workload: it still checks conservation
// and recovery, and still prints every metric of its table.
func smoke(t *testing.T, workload string, trace, sabotage bool) (*result, *record) {
	t.Helper()
	res, rec, err := run(options{
		workload: workload, seed: 1, seconds: 0.3, trace: trace, dir: t.TempDir(),
		setups: 1, restarts: 1, logRequests: 100, sabotage: sabotage,
	})
	if err != nil {
		t.Fatalf("%s (trace %v): %v", workload, trace, err)
	}
	return res, rec
}

func TestSmokeEveryWorkload(t *testing.T) {
	for _, w := range []string{"local", "pull", "audit"} {
		for _, trace := range []bool{false, true} {
			res, rec := smoke(t, w, trace, false)
			if !res.Correct {
				t.Errorf("%s (trace %v) incorrect: %v", w, trace, rec.Problems)
			}
			if res.Attempted == 0 {
				t.Errorf("%s (trace %v) attempted no requests", w, trace)
			}
			// The gated workloads give each client its own sites and
			// items, so none of their requests may fail.
			if w != "audit" && res.Failed != 0 {
				t.Errorf("%s (trace %v): %d of %d requests failed, want none", w, trace, res.Failed, res.Attempted)
			}
			defs := endToEnd
			if trace {
				defs = perLayer
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s (trace %v) printed %d metrics, want %d", w, trace, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				v, ok := res.Metrics[d.name]
				if !ok || v.Unit != d.unit {
					t.Errorf("%s (trace %v): metric %s = %+v, want unit %q", w, trace, d.name, v, d.unit)
				}
			}
			if rec.GOMAXPROCS == 0 || rec.NProc == 0 || rec.Go == "" || rec.Seed != 1 || rec.Params["items"] != numItems {
				t.Errorf("%s (trace %v): record lacks its conditions: %+v", w, trace, rec)
			}
		}
	}
}

func TestSabotagedDeltaFailsTheRun(t *testing.T) {
	res, rec := smoke(t, "local", false, true)
	if res.Correct {
		t.Fatal("a run whose observed deltas were corrupted passed the conservation check")
	}
	if len(rec.Problems) == 0 || !strings.Contains(rec.Problems[0], "conservation") {
		t.Fatalf("problems = %v, want a conservation failure", rec.Problems)
	}
}

// TestBenchmarkFileMatchesTables keeps BENCHMARK.json and the metric
// tables the program prints from in step.
func TestBenchmarkFileMatchesTables(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []struct {
			Name, Unit, Better string
		} `json:"end_to_end"`
		PerLayer []struct {
			Name, Unit, Better string
		} `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	for _, w := range spec.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %q is unknown", w.Name)
		}
	}
	check := func(table string, got []struct{ Name, Unit, Better string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, the program %d", table, len(got), len(want))
			return
		}
		for i, d := range want {
			if g := got[i]; g.Name != d.name || g.Unit != d.unit || g.Better != d.better {
				t.Errorf("%s[%d]: BENCHMARK.json %+v, program %+v", table, i, g, d)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
}

func TestHistQuantileIsClose(t *testing.T) {
	var h hist
	for i := 1; i <= 100000; i++ {
		h.record(int64(i) * int64(time.Microsecond) / 100)
	}
	for _, q := range []float64{0.5, 0.99} {
		want := q * float64(time.Millisecond)
		if got := h.quantile(q); got < want*0.94 || got > want*1.06 {
			t.Errorf("quantile(%v) = %v, want %v within 6%%", q, got, want)
		}
	}
}
