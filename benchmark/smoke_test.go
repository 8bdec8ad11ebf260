package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"
)

// TestSmoke runs every workload, untraced and traced, on a tiny mesh for half a
// second each and holds the output against BENCHMARK.json: exactly the
// workloads and metrics the file lists, each once, finite, with its unit.
// The file and the code cannot drift apart without this failing.
func TestSmoke(t *testing.T) {
	var m manifest
	if err := readJSON("../BENCHMARK.json", &m); err != nil {
		t.Fatal(err)
	}
	if len(m.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the code has %d", len(m.Workloads), len(workloads))
	}
	for i, w := range m.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json says %q, the code %q", i, w.Name, workloads[i].name)
		}
	}
	for _, mode := range []struct {
		trace bool
		want  []boundedMetric
	}{{false, m.EndToEnd}, {true, m.PerLayer}} {
		cfg := config{workload: "all", seed: 3, seconds: 0.5, trace: mode.trace, outDir: t.TempDir(), tiny: true}
		var out bytes.Buffer
		if err := runOnce(context.Background(), &out, cfg); err != nil {
			t.Fatalf("trace %t: %v\n%s", mode.trace, err, out.String())
		}
		var lines []string
		for _, l := range strings.Split(out.String(), "\n") {
			if strings.HasPrefix(l, "{") {
				lines = append(lines, l)
			}
		}
		if len(lines) != len(workloads) {
			t.Fatalf("trace %t: %d result lines for %d workloads", mode.trace, len(lines), len(workloads))
		}
		for i, l := range lines {
			name := workloads[i].name
			var res wireResult
			dec := json.NewDecoder(strings.NewReader(l))
			dec.DisallowUnknownFields()
			if err := dec.Decode(&res); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace %t: correct %t, %d failed of %d\n%s", name, mode.trace, res.Correct, res.Failed, res.Attempted, out.String())
			}
			if len(res.Metrics) != len(mode.want) {
				t.Errorf("%s trace %t: %d metrics emitted, BENCHMARK.json lists %d", name, mode.trace, len(res.Metrics), len(mode.want))
			}
			for _, d := range mode.want {
				got, ok := res.Metrics[d.Name]
				switch {
				case !ok:
					t.Errorf("%s: metric %s of BENCHMARK.json is not emitted", name, d.Name)
				case got.Unit != d.Unit:
					t.Errorf("%s: metric %s has unit %q, BENCHMARK.json says %q", name, d.Name, got.Unit, d.Unit)
				case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
					t.Errorf("%s: metric %s is %v", name, d.Name, got.Value)
				case !mode.trace && got.Value == 0:
					t.Errorf("%s: end-to-end metric %s is 0", name, d.Name)
				}
			}
			if mode.trace {
				if _, err := os.Stat(cfg.tracePath(name)); err != nil {
					t.Errorf("%s: no span file: %v", name, err)
				}
			}
		}
	}
}

// TestQuartiles pins the quartile rule to Python's statistics.quantiles(n=4).
func TestQuartiles(t *testing.T) {
	q1, q3 := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles of 1..10 = %g, %g; Python gives 2.75, 8.25", q1, q3)
	}
}
