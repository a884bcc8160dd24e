package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// spec is the part of BENCHMARK.json the self-test checks against.
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

func loadSpec(t *testing.T) spec {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	if err := json.Unmarshal(b, &s); err != nil {
		t.Fatal(err)
	}
	if len(s.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(s.Workloads), len(workloads))
	}
	return s
}

func shortRun(name string) *runConfig {
	return &runConfig{workload: name, seed: 7, dur: 500 * time.Millisecond, clients: 2}
}

// TestEveryMetricEmitted runs each workload briefly, untraced and traced,
// and checks that the outputs are correct and that exactly the metrics
// BENCHMARK.json names are emitted, each with its unit.
func TestEveryMetricEmitted(t *testing.T) {
	s := loadSpec(t)
	for _, wl := range s.Workloads {
		for _, trace := range []bool{false, true} {
			want := s.EndToEnd
			if trace {
				want = s.PerLayer
			}
			res, st, err := measure(shortRun(wl.Name), trace, filepath.Join(t.TempDir(), "spans.jsonl"))
			if err != nil {
				t.Fatalf("%s trace=%v: %v", wl.Name, trace, err)
			}
			if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d wrong=%q first error=%q",
					wl.Name, trace, res.Correct, res.Attempted, res.Failed, st.wrong, st.firstErr)
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, BENCHMARK.json names %d", wl.Name, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s trace=%v: metric %s missing", wl.Name, trace, m.Name)
				case got.Unit != m.Unit:
					t.Errorf("%s trace=%v: %s unit %q, want %q", wl.Name, trace, m.Name, got.Unit, m.Unit)
				case !trace && !(got.Value > 0):
					t.Errorf("%s: end-to-end %s = %v, want > 0", wl.Name, m.Name, got.Value)
				}
			}
		}
	}
}

// TestPlantedWrongValueFails plants a wrong value in every world, behind
// the benchmark's back; the output checks must catch it.
func TestPlantedWrongValueFails(t *testing.T) {
	for name := range workloads {
		cfg := shortRun(name)
		cfg.plant = true
		res, st, err := measure(cfg, false, "")
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.Correct || len(st.wrong) == 0 {
			t.Errorf("%s: planted wrong value not caught", name)
		}
	}
}

// TestSpansDumped checks the traced run writes its spans: one root per
// op, every other span pointing at a span of the same op.
func TestSpansDumped(t *testing.T) {
	path := filepath.Join(t.TempDir(), "spans.jsonl")
	if _, _, err := measure(shortRun("launch_churn"), true, path); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	dec := json.NewDecoder(f)
	roots, n := map[uint64]bool{}, 0
	for dec.More() {
		var s span
		if err := dec.Decode(&s); err != nil {
			t.Fatal(err)
		}
		n++
		if s.Parent < 0 {
			roots[s.Op] = true
		} else if !roots[s.Op] || s.End < s.Start {
			t.Fatalf("span %+v: no root before it, or it ends before it starts", s)
		}
	}
	if len(roots) == 0 || n <= len(roots) {
		t.Fatalf("%d spans for %d ops", n, len(roots))
	}
}
