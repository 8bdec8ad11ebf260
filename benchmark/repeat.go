package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// sets is what -repeat measures and -compare reads: for every workload and
// metric, one value per set, in the order the sets ran.
type sets struct {
	Header    header                          `json:"header"`
	Trace     bool                            `json:"trace"`
	Sets      int                             `json:"sets"`
	Failed    int                             `json:"failed"`
	Workloads map[string]map[string][]float64 `json:"workloads"`
}

// spread is the distance between the quartiles as a share of the median: the
// measure BENCHMARK.json's bounds are judged against.
func spread(vals []float64) float64 {
	q1, q3 := quartiles(vals)
	if m := median(vals); m != 0 {
		return (q3 - q1) / m
	}
	return 0
}

// runRepeat runs k sets of the selected workloads, set i with seed+i, and
// prints median, quartiles and spread per metric.
func runRepeat(ctx context.Context, w io.Writer, cfg config, k int, out string) error {
	sel, err := selected(cfg.workload)
	if err != nil {
		return err
	}
	printHeader(w, cfg)
	doc := sets{Header: newHeader(cfg), Trace: cfg.trace, Sets: k, Workloads: map[string]map[string][]float64{}}
	defs := endToEnd
	if cfg.trace {
		defs = perLayer
	}
	for i := 0; i < k; i++ {
		run := cfg
		run.seed = cfg.seed + int64(i)
		for _, wl := range sel {
			res, err := wl.run(ctx, run)
			if err != nil {
				return fmt.Errorf("set %d: %s: %w", i, wl.name, err)
			}
			if doc.Workloads[wl.name] == nil {
				doc.Workloads[wl.name] = map[string][]float64{}
			}
			for _, d := range defs {
				doc.Workloads[wl.name][d.name] = append(doc.Workloads[wl.name][d.name], res.values[d.name])
			}
			doc.Failed += res.failed
			fmt.Fprintf(w, "set %d of %d: %s: %d attempted, %d failed\n", i+1, k, wl.name, res.attempted, res.failed)
		}
	}
	for _, wl := range sel {
		fmt.Fprintf(w, "## %s: %d sets\n%-32s %-6s %14s %14s %14s %8s\n", wl.name, k, "metric", "unit", "median", "q1", "q3", "spread")
		for _, d := range defs {
			vals := doc.Workloads[wl.name][d.name]
			q1, q3 := quartiles(vals)
			fmt.Fprintf(w, "%-32s %-6s %14.6g %14.6g %14.6g %7.2f%%\n", d.name, d.unit, median(vals), q1, q3, 100*spread(vals))
		}
	}
	if out != "" {
		b, err := json.MarshalIndent(doc, "", " ")
		if err != nil {
			return err
		}
		if err := os.MkdirAll(filepath.Dir(out), 0o755); err != nil {
			return err
		}
		if err := os.WriteFile(out, append(b, '\n'), 0o644); err != nil {
			return err
		}
	}
	if doc.Failed > 0 {
		return fmt.Errorf("%d operations or checks failed", doc.Failed)
	}
	return nil
}

// manifest is the part of BENCHMARK.json the benchmark itself reads.
type manifest struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []boundedMetric `json:"end_to_end"`
	PerLayer []boundedMetric `json:"per_layer"`
}

type boundedMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readJSON(path string, v any) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(b, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// runCompare sets two -repeat files side by side: for every workload and
// end-to-end metric, the second file's median as a ratio of the first's, and
// a verdict against the metric's bound. A pairing whose spread between sets
// exceeds the bound on either side is unresolved, not unchanged.
func runCompare(w io.Writer, paths []string) error {
	if len(paths) != 2 {
		return fmt.Errorf("-compare wants two files written by -repeat -out, got %d arguments", len(paths))
	}
	var m manifest
	if err := readJSON("BENCHMARK.json", &m); err != nil {
		return err
	}
	var a, b sets
	if err := readJSON(paths[0], &a); err != nil {
		return err
	}
	if err := readJSON(paths[1], &b); err != nil {
		return err
	}
	fmt.Fprintf(w, "base %s: commit %s seed %d seconds %g, %d sets\n", paths[0], a.Header.Commit, a.Header.Seed, a.Header.Seconds, a.Sets)
	fmt.Fprintf(w, "new  %s: commit %s seed %d seconds %g, %d sets\n", paths[1], b.Header.Commit, b.Header.Seed, b.Header.Seconds, b.Sets)
	regressions := 0
	for _, wl := range m.Workloads {
		va, vb := a.Workloads[wl.Name], b.Workloads[wl.Name]
		if va == nil || vb == nil {
			continue
		}
		fmt.Fprintf(w, "## %s\n%-28s %12s %12s %8s %8s %8s %7s  %s\n", wl.Name, "metric", "base", "new", "new/base", "spread", "spread", "bound", "verdict")
		for _, d := range m.EndToEnd {
			ma, mb := median(va[d.Name]), median(vb[d.Name])
			if ma == 0 {
				continue
			}
			worse := (mb - ma) / ma
			if d.Better == "higher" {
				worse = -worse
			}
			sa, sb := spread(va[d.Name]), spread(vb[d.Name])
			verdict := "ok"
			switch {
			case max(sa, sb) > d.Bound:
				verdict = "unresolved"
			case worse > d.Bound:
				verdict = "REGRESSION"
				regressions++
			}
			fmt.Fprintf(w, "%-28s %12.6g %12.6g %8.4f %7.2f%% %7.2f%% %6.1f%%  %s\n", d.Name, ma, mb, mb/ma, 100*sa, 100*sb, 100*d.Bound, verdict)
		}
	}
	if regressions > 0 {
		return fmt.Errorf("%d metrics worse than their bound", regressions)
	}
	return nil
}
