// Command canopus-bench regenerates the tables and figures of the Canopus
// paper's evaluation (§IV). Each figure driver runs the full pipeline —
// synthetic workload, refactoring, tiered placement, progressive retrieval,
// analytics — and prints the series the paper plots.
//
// Usage:
//
//	canopus-bench -fig all            # every figure, paper-scale meshes
//	canopus-bench -fig 5              # one figure
//	canopus-bench -fig 9 -scale quick # reduced meshes for a fast pass
//	canopus-bench -fig 4 -ascii       # include Fig. 4's text-art gallery
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/bench"
	"repro/internal/obs"
)

func main() {
	fig := flag.String("fig", "all", "figure to regenerate: "+strings.Join(bench.Figures(), ", ")+", or all")
	scale := flag.String("scale", "paper", "dataset scale: paper or quick")
	ascii := flag.Bool("ascii", false, "render Fig. 4's text-art gallery")
	workers := flag.Int("workers", 0, "concurrent pipeline workers (0 = NumCPU, 1 = serial)")
	var ocli obs.CLI
	ocli.Bind(flag.CommandLine)
	flag.Parse()

	var s bench.Scale
	switch *scale {
	case "paper":
		s = bench.ScalePaper
	case "quick":
		s = bench.ScaleQuick
	default:
		fmt.Fprintf(os.Stderr, "canopus-bench: unknown scale %q (want paper or quick)\n", *scale)
		os.Exit(2)
	}

	_, finish, err := ocli.Start(context.Background(), "canopus-bench")
	if err == nil {
		r := bench.New(os.Stdout, s)
		r.ASCII = *ascii
		r.Workers = *workers
		err = r.Run(*fig)
		if ferr := finish(); err == nil {
			err = ferr
		}
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "canopus-bench: %v\n", err)
		os.Exit(1)
	}
}
