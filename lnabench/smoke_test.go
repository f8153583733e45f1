package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"os"
	"testing"

	"localalias/internal/service"
)

// benchmarkFile is the shape of the repository's BENCHMARK.json.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkFile
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return b
}

// TestBenchmarkFileMatchesSchema holds BENCHMARK.json to the metric
// tables and workloads the program reports.
func TestBenchmarkFileMatchesSchema(t *testing.T) {
	b := readBenchmarkFile(t)
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program runs %d", len(b.Workloads), len(workloads))
	}
	for i, w := range b.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the program %q (%q)",
				i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
	}
	if len(b.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json lists %d end-to-end metrics, the program %d", len(b.EndToEnd), len(endToEnd))
	}
	for i, m := range b.EndToEnd {
		if m.Name != endToEnd[i].name || m.Unit != endToEnd[i].unit {
			t.Errorf("end_to_end %d: BENCHMARK.json has %s [%s], the program %s [%s]",
				i, m.Name, m.Unit, endToEnd[i].name, endToEnd[i].unit)
		}
	}
	if len(b.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, the program %d", len(b.PerLayer), len(perLayer))
	}
	for i, m := range b.PerLayer {
		if m.Name != perLayer[i].name || m.Unit != perLayer[i].unit {
			t.Errorf("per_layer %d: BENCHMARK.json has %s [%s], the program %s [%s]",
				i, m.Name, m.Unit, perLayer[i].name, perLayer[i].unit)
		}
	}
}

// TestSmoke runs every workload briefly, untraced and traced, and
// checks that each run passes its oracles and prints exactly the
// metric set BENCHMARK.json names for it.
func TestSmoke(t *testing.T) {
	b := readBenchmarkFile(t)
	want := map[bool]map[string]string{false: {}, true: {}}
	for _, m := range b.EndToEnd {
		want[false][m.Name] = m.Unit
	}
	for _, m := range b.PerLayer {
		want[true][m.Name] = m.Unit
	}
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			cfg := config{seed: 7, seconds: 1, trace: traced}
			out, err := w.run(cfg)
			if err != nil {
				t.Fatalf("%s trace=%t: %v", w.name, traced, err)
			}
			line, err := render(io.Discard, w, cfg, out)
			if err != nil {
				t.Fatalf("%s trace=%t: %v", w.name, traced, err)
			}
			var res resultLine
			if err := json.Unmarshal(line, &res); err != nil {
				t.Fatalf("%s trace=%t: result line: %v", w.name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%t: correct=%t attempted=%d failed=%d; oracle: %v",
					w.name, traced, res.Correct, res.Attempted, res.Failed, out.problems)
			}
			if len(res.Metrics) != len(want[traced]) {
				t.Errorf("%s trace=%t: %d metrics, want %d", w.name, traced, len(res.Metrics), len(want[traced]))
			}
			for name, m := range res.Metrics {
				if unit, ok := want[traced][name]; !ok || unit != m.Unit {
					t.Errorf("%s trace=%t: metric %s [%s] is not in BENCHMARK.json", w.name, traced, name, m.Unit)
				}
			}
			if !traced {
				for name, m := range res.Metrics {
					if m.Value <= 0 {
						t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.name, name, m.Value)
					}
				}
			}
		}
	}
}

// TestEditShapesKeepExpected checks, on scratch copies of the sources,
// that both edit shapes leave every corpus module at its expected
// triple and every XStack leaf at its summary triple: the oracles of
// serve_edits and fleet_xmodule hold for every revision they send.
func TestEditShapesKeepExpected(t *testing.T) {
	mods, err := loadCorpus()
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for _, m := range mods {
		for _, rev := range []revision{{edit: 7}, {comment: 7}, {edit: 3, comment: 4}} {
			req := service.AnalyzeRequest{Module: m.name, Source: revisionSource(m.src, rev)}
			resp := service.AnalyzeBounded(ctx, &req, service.DefaultRequestTimeout)
			if resp.Failure != nil || resp.Locking == nil {
				t.Fatalf("%s %+v: no locking report (%v)", m.name, rev, resp.Failure)
			}
			if got := lockingTriple(resp.Locking); got != m.expected {
				t.Errorf("%s %+v: triple %v, want %v", m.name, rev, got, m.expected)
			}
		}
	}
	p, err := loadFleetProgram()
	if err != nil {
		t.Fatal(err)
	}
	for l, leaf := range p.leaves {
		req := p.request(l, 5)
		resp := service.AnalyzeBounded(ctx, &req, service.DefaultRequestTimeout)
		if resp.Failure != nil || resp.Locking == nil {
			t.Fatalf("%s: no locking report (%v)", leaf.Name, resp.Failure)
		}
		if got := lockingTriple(resp.Locking); got != leaf.ExpSummary {
			t.Errorf("%s: triple %v, want %v", leaf.Name, got, leaf.ExpSummary)
		}
	}
}
