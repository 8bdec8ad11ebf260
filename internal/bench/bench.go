// Package bench regenerates every table and figure of the Canopus paper's
// evaluation (§IV). Each Fig* function runs the full pipeline — synthetic
// workload generation, refactoring, placement, retrieval, analytics — and
// prints the series the paper plots. cmd/canopus-bench is the CLI front
// end; performance is measured by the separate benchmark/ module, not here.
//
// Compute phases report real wall time on the host machine; I/O phases
// report the deterministic simulated time of the storage model, so the
// I/O-side numbers are machine-independent. Absolute values therefore
// differ from the paper's Titan measurements, but the comparisons the paper
// draws (who wins, by what factor, and in which direction each curve moves)
// are preserved — EXPERIMENTS.md records both.
package bench

import (
	"fmt"
	"io"
	"text/tabwriter"

	"repro/internal/adios"
	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/storage"
)

// Scale selects dataset sizes.
type Scale int

const (
	// ScalePaper uses the paper's mesh sizes (XGC1 ~21k vertices,
	// GenASiS ~65k, CFD ~6.5k) for the fidelity figures, and a larger
	// XGC1 for the I/O-bound timing figures.
	ScalePaper Scale = iota
	// ScaleQuick shrinks everything for unit tests and -short runs.
	ScaleQuick
)

// Runner executes figure drivers.
type Runner struct {
	Out   io.Writer
	Scale Scale
	// ASCII enables the qualitative text-art galleries in Fig. 4/7.
	ASCII bool
	// Workers bounds the engine worker pool for refactoring pipelines
	// (0 = NumCPU, 1 = serial).
	Workers int
}

// New returns a Runner writing to out at the given scale.
func New(out io.Writer, scale Scale) *Runner {
	return &Runner{Out: out, Scale: scale}
}

// Figures lists the available figure ids in paper order.
func Figures() []string {
	return []string{"4", "5", "6a", "6b", "7", "8", "9", "10", "11", "ablation"}
}

// Run dispatches one figure id ("4" ... "11", "6a", "6b", "ablation", or
// "all").
func (r *Runner) Run(id string) error {
	switch id {
	case "4":
		return r.Fig4()
	case "5":
		return r.Fig5()
	case "6a":
		return r.Fig6a()
	case "6b":
		return r.Fig6b()
	case "6":
		if err := r.Fig6a(); err != nil {
			return err
		}
		return r.Fig6b()
	case "7":
		return r.Fig7()
	case "8":
		return r.Fig8()
	case "9":
		return r.Fig9()
	case "10":
		return r.Fig10()
	case "11":
		return r.Fig11()
	case "ablation":
		return r.Ablation()
	case "all":
		for _, f := range Figures() {
			if err := r.Run(f); err != nil {
				return fmt.Errorf("figure %s: %w", f, err)
			}
		}
		return nil
	default:
		return fmt.Errorf("bench: unknown figure %q (have %v)", id, Figures())
	}
}

// header prints a figure banner.
func (r *Runner) header(title string) {
	fmt.Fprintf(r.Out, "\n=== %s ===\n", title)
}

// table starts an aligned table.
func (r *Runner) table() *tabwriter.Writer {
	return tabwriter.NewWriter(r.Out, 2, 4, 2, ' ', 0)
}

// Dataset constructors per scale. The timing figures (9–11) need enough
// bytes that tier bandwidth, not per-operation latency, dominates — the
// regime the paper measures — so they use enlarged meshes at ScalePaper.

func (r *Runner) xgc1() *sim.XGC1Result {
	if r.Scale == ScaleQuick {
		return sim.XGC1(sim.XGC1Config{Rings: 12, Segments: 128})
	}
	return sim.XGC1(sim.XGC1Config{})
}

func (r *Runner) xgc1Large() *sim.XGC1Result {
	if r.Scale == ScaleQuick {
		return sim.XGC1(sim.XGC1Config{Rings: 16, Segments: 256})
	}
	// ~190k vertices, ~1.5 MB per field: bandwidth-bound on the
	// simulated Lustre tier.
	return sim.XGC1(sim.XGC1Config{Rings: 96, Segments: 2048})
}

func (r *Runner) genasis() *core.Dataset {
	if r.Scale == ScaleQuick {
		return sim.GenASiS(sim.GenASiSConfig{Rings: 24, Segments: 96})
	}
	return sim.GenASiS(sim.GenASiSConfig{})
}

func (r *Runner) cfd() *core.Dataset {
	if r.Scale == ScaleQuick {
		return sim.CFD(sim.CFDConfig{NX: 30, NY: 24})
	}
	return sim.CFD(sim.CFDConfig{})
}

// newIO builds a fresh two-tier Titan-like stack, the paper's testbed.
func newIO() *adios.IO {
	return adios.NewIO(storage.TitanTwoTier(0), nil)
}

// levelsForRatio converts a target base decimation ratio (power of two)
// into a level count with ratio 2 per level.
func levelsForRatio(ratio int) int {
	n := 1
	for r := ratio; r > 1; r /= 2 {
		n++
	}
	return n
}

// fmtBytes renders a byte count compactly.
func fmtBytes(b int64) string {
	switch {
	case b >= 1<<20:
		return fmt.Sprintf("%.2f MiB", float64(b)/(1<<20))
	case b >= 1<<10:
		return fmt.Sprintf("%.1f KiB", float64(b)/(1<<10))
	default:
		return fmt.Sprintf("%d B", b)
	}
}

// ms renders seconds as milliseconds.
func ms(s float64) string { return fmt.Sprintf("%.2f", s*1e3) }
