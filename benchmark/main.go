// Command benchmark is the repository's one benchmark: four workloads over
// the Canopus library, eight end-to-end metrics each, and a traced pass that
// fills a per-layer ledger. BENCHMARK.json at the repository root describes
// it; README.md in this directory says how to read it.
//
//	bash benchmark/run.sh --workload explore_cold --seed 1 --seconds 25 --trace 0
//	bash benchmark/run.sh --workload all --trace 1
//	bash benchmark/run.sh --repeat 10 --out benchmark/out/a.json
//	bash benchmark/run.sh --compare benchmark/out/a.json benchmark/out/b.json
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
)

type workload struct {
	name string
	run  func(context.Context, config) (*result, error)
}

var workloads = []workload{
	{"ingest_single", runIngestSingle},
	{"ingest_campaign", runIngestCampaign},
	{"explore_cold", runExploreCold},
	{"serve_zipf", runServeZipf},
}

func (c config) tracePath(workload string) string {
	return filepath.Join(c.outDir, "trace-"+workload+".jsonl")
}

func main() {
	var cfg config
	var trace, repeat int
	var out string
	var compare bool
	flag.StringVar(&cfg.workload, "workload", "all", "workload to run: "+workloadNames()+", or all")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed of every generated input")
	flag.Float64Var(&cfg.seconds, "seconds", 25, "length of the timed phase of each workload")
	flag.IntVar(&trace, "trace", 0, "0: end-to-end metrics, tracing off; 1: the traced pass and the per-layer metrics")
	flag.StringVar(&cfg.outDir, "out-dir", "benchmark/out", "directory of the span files of the traced pass")
	flag.IntVar(&repeat, "repeat", 0, "run this many sets, with seeds seed, seed+1, ..., and print median and quartiles per metric")
	flag.StringVar(&out, "out", "", "with -repeat: also write the sets to this JSON file, for -compare")
	flag.BoolVar(&compare, "compare", false, "compare two files written by -repeat -out, given as arguments, against BENCHMARK.json's bounds")
	flag.Parse()
	cfg.trace = trace != 0

	ctx := context.Background()
	var err error
	switch {
	case compare:
		err = runCompare(os.Stdout, flag.Args())
	case flag.NArg() > 0:
		err = fmt.Errorf("unexpected arguments %q", flag.Args())
	case repeat > 0:
		err = runRepeat(ctx, os.Stdout, cfg, repeat, out)
	default:
		err = runOnce(ctx, os.Stdout, cfg)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, ", ")
}

// selected resolves -workload to the workloads it names.
func selected(name string) ([]workload, error) {
	if name == "all" {
		return workloads, nil
	}
	for _, w := range workloads {
		if w.name == name {
			return []workload{w}, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q (want %s, or all)", name, workloadNames())
}

// runOnce runs the selected workloads and prints, for each, a table for the
// reader and then the result as one JSON object on a line of its own. The
// error it returns after printing says that some check failed.
func runOnce(ctx context.Context, w io.Writer, cfg config) error {
	sel, err := selected(cfg.workload)
	if err != nil {
		return err
	}
	printHeader(w, cfg)
	bad := 0
	for _, wl := range sel {
		res, err := wl.run(ctx, cfg)
		if err != nil {
			return fmt.Errorf("%s: %w", wl.name, err)
		}
		line, err := report(w, cfg, res)
		if err != nil {
			return err
		}
		fmt.Fprintln(w, line)
		bad += res.failed
	}
	if bad > 0 {
		return fmt.Errorf("%d operations or checks failed", bad)
	}
	return nil
}

// header describes the machine and the settings of a run.
type header struct {
	Commit     string  `json:"commit"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
}

func newHeader(cfg config) header {
	return header{
		Commit:     commit(),
		Seed:       cfg.seed,
		Seconds:    cfg.seconds,
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
	}
}

// commit reads the checked-out commit from .git without running git; a
// checkout that is not a repository reports "unknown".
func commit() string {
	head, err := os.ReadFile(".git/HEAD")
	if err != nil {
		return "unknown"
	}
	ref := strings.TrimSpace(string(head))
	if name, ok := strings.CutPrefix(ref, "ref: "); ok {
		b, err := os.ReadFile(filepath.Join(".git", name))
		if err != nil {
			return "unknown"
		}
		ref = strings.TrimSpace(string(b))
	}
	return ref
}

func printHeader(w io.Writer, cfg config) {
	h := newHeader(cfg)
	fmt.Fprintf(w, "# canopus benchmark: commit %s seed %d seconds %g trace %t nproc %d GOMAXPROCS %d %s\n",
		h.Commit, h.Seed, h.Seconds, cfg.trace, h.NProc, h.GOMAXPROCS, h.GoVersion)
}

// wireMetric and wireResult are the result line's shape.
type wireMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type wireResult struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]wireMetric `json:"metrics"`
}

// report prints the table of one result and returns its JSON line. An
// end-to-end metric that is missing, zero or not finite is a failed check:
// every workload must produce every one of them.
func report(w io.Writer, cfg config, res *result) (string, error) {
	defs := endToEnd
	if cfg.trace {
		defs = perLayer
	}
	wire := wireResult{Attempted: res.attempted, Metrics: map[string]wireMetric{}}
	fmt.Fprintf(w, "## %s\n", res.workload)
	for _, d := range defs {
		v, ok := res.values[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) || (!cfg.trace && (!ok || v == 0)) {
			res.fail("metric %s is %v", d.name, v)
			v = 0
		}
		wire.Metrics[d.name] = wireMetric{Value: v, Unit: d.unit}
		fmt.Fprintf(w, "%-32s %14.6g %-6s n=%d\n", d.name, v, d.unit, res.samples[d.name])
	}
	if cfg.trace {
		sum := 0.0
		for _, d := range ledgerMetrics[1:] {
			sum += res.values[d.name]
		}
		fmt.Fprintf(w, "ledger: layers and remainder sum to %.4g ms of a %.4g ms root\n", sum, res.values["core.root_ms"])
	}
	failedRatio := 0.0
	if res.attempted > 0 {
		failedRatio = float64(res.failed) / float64(res.attempted)
	}
	fmt.Fprintf(w, "%-32s %14.6g %-6s n=%d\n", "failed_ratio", failedRatio, "ratio", res.attempted)
	for _, n := range res.notes {
		fmt.Fprintln(w, "FAILED:", n)
	}
	wire.Failed = res.failed
	wire.Correct = res.failed == 0 && res.attempted > 0
	if wire.Attempted < 1 {
		wire.Attempted = 1
	}
	b, err := json.Marshal(wire)
	return string(b), err
}
