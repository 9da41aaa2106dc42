package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// benchmarkFile is the part of BENCHMARK.json the smoke test checks.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

// TestSmokeEveryWorkload runs every workload of BENCHMARK.json at tiny size,
// untraced and traced, and checks that the verdict is pass and that every
// metric BENCHMARK.json names is printed with its unit.
func TestSmokeEveryWorkload(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bench benchmarkFile
	if err := json.Unmarshal(raw, &bench); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range bench.Workloads {
		names = append(names, w.Name)
	}
	if !slices.Equal(names, workloads) {
		t.Fatalf("BENCHMARK.json workloads %v, benchmark runs %v", names, workloads)
	}
	for _, name := range workloads {
		for _, traced := range []bool{false, true} {
			cfg := runConfig{workload: name, seed: 2, seconds: 1, trace: traced, tiny: true,
				traceOut: filepath.Join(t.TempDir(), "trace.jsonl")}
			var out bytes.Buffer
			rep, defs, err := run(cfg, &out)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", name, traced, err)
			}
			if err := rep.print(&out, defs); err != nil {
				t.Fatal(err)
			}
			if !rep.Correct {
				t.Errorf("%s traced=%v: verdict FAIL\n%s", name, traced, out.String())
			}
			want := bench.EndToEnd
			if traced {
				want = bench.PerLayer
			}
			if len(rep.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics printed, BENCHMARK.json lists %d", name, traced, len(rep.Metrics), len(want))
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			for _, m := range want {
				got, ok := rep.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s traced=%v: metric %s: got %+v, want unit %s", name, traced, m.Name, got, m.Unit)
				}
				if !slices.ContainsFunc(lines, func(l string) bool {
					f := strings.Fields(l)
					return len(f) == 4 && f[0] == "metric" && f[1] == m.Name && f[3] == m.Unit
				}) {
					t.Errorf("%s traced=%v: no line prints metric %s with unit %s", name, traced, m.Name, m.Unit)
				}
			}
			var last map[string]json.RawMessage
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
				t.Fatalf("%s traced=%v: last line is not JSON: %v", name, traced, err)
			}
			for _, k := range []string{"correct", "attempted", "failed", "metrics"} {
				if _, ok := last[k]; !ok {
					t.Errorf("%s traced=%v: last line lacks %q", name, traced, k)
				}
			}
			if len(last) != 4 {
				t.Errorf("%s traced=%v: last line has keys beyond correct/attempted/failed/metrics", name, traced)
			}
		}
	}
}
