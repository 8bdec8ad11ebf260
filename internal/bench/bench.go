// Package bench regenerates every table and figure of the Canopus paper's
// evaluation (§IV). Each figure driver runs the full pipeline — synthetic
// workload generation, refactoring, placement, retrieval, analytics — and
// returns the series the paper plots as a figure of numbers; one renderer
// prints them. cmd/canopus-bench is the CLI front end; the shapes the paper
// claims are asserted on the returned numbers by this package's tests, and
// performance is measured by the separate benchmark/ module, not here.
//
// Compute phases report real wall time on the host machine; I/O phases
// report the deterministic simulated time of the storage model, so the
// I/O-side numbers are machine-independent. Absolute values therefore
// differ from the paper's Titan measurements, but the comparisons the paper
// draws (who wins, by what factor, and in which direction each curve moves)
// are preserved — EXPERIMENTS.md records both.
package bench

import (
	"context"
	"fmt"
	"io"
	"strconv"
	"strings"
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
	// ASCII enables the text-art gallery of Fig. 4.
	ASCII bool
	// Workers bounds the engine worker pool for refactoring pipelines
	// (0 = NumCPU, 1 = serial).
	Workers int
}

// New returns a Runner writing to out at the given scale.
func New(out io.Writer, scale Scale) *Runner {
	return &Runner{Out: out, Scale: scale}
}

// drivers maps each figure id, in paper order, to the driver computing it.
var drivers = []struct {
	id  string
	run func(*Runner) (*figure, error)
}{
	{"4", (*Runner).fig4},
	{"5", (*Runner).fig5},
	{"6a", (*Runner).fig6a},
	{"6b", (*Runner).fig6b},
	{"7", (*Runner).fig7},
	{"8", (*Runner).fig8},
	{"9", (*Runner).fig9},
	{"10", (*Runner).fig10},
	{"11", (*Runner).fig11},
	{"ablation", (*Runner).ablation},
}

// Figures lists the available figure ids in paper order.
func Figures() []string {
	ids := make([]string, len(drivers))
	for i, d := range drivers {
		ids[i] = d.id
	}
	return ids
}

// Run computes one figure id (one of Figures(), or "all") and prints it.
func (r *Runner) Run(id string) error {
	if id == "all" {
		for _, f := range Figures() {
			if err := r.Run(f); err != nil {
				return fmt.Errorf("figure %s: %w", f, err)
			}
		}
		return nil
	}
	for _, d := range drivers {
		if d.id == id {
			f, err := d.run(r)
			if err != nil {
				return err
			}
			return r.render(f)
		}
	}
	return fmt.Errorf("bench: unknown figure %q (have %v)", id, Figures())
}

// figure is what every driver returns: the numbers of one paper figure.
type figure struct {
	title    string
	workload string // one line describing the input, or ""
	tables   []table
}

// table is one table of a figure: labelled rows of numbers under column
// heads, each value column with its own format.
type table struct {
	caption string   // line above the table, or ""
	heads   []string // heads[0] names the row labels
	formats []string // per value column: a fmt verb, "bytes" or "bool"
	rows    []row
	gallery string // text art printed below the table (Fig. 4 with ASCII)
}

type row struct {
	label string
	vals  []float64
}

// render prints f. It is the only code in the package that writes to r.Out.
func (r *Runner) render(f *figure) error {
	fmt.Fprintf(r.Out, "\n=== %s ===\n", f.title)
	if f.workload != "" {
		fmt.Fprintf(r.Out, "workload: %s\n", f.workload)
	}
	for _, t := range f.tables {
		// A blank line sets each table off from the lines above it, except
		// an uncaptioned table directly under the banner (Fig. 6a).
		if t.caption != "" || f.workload != "" {
			fmt.Fprintln(r.Out)
		}
		if t.caption != "" {
			fmt.Fprintln(r.Out, t.caption)
		}
		tw := tabwriter.NewWriter(r.Out, 2, 4, 2, ' ', 0)
		fmt.Fprintln(tw, strings.Join(t.heads, "\t"))
		for _, rw := range t.rows {
			cells := []string{rw.label}
			for i, v := range rw.vals {
				cells = append(cells, cell(t.formats[i], v))
			}
			fmt.Fprintln(tw, strings.Join(cells, "\t"))
		}
		if err := tw.Flush(); err != nil {
			return err
		}
		fmt.Fprint(r.Out, t.gallery)
	}
	return nil
}

// cell formats one value of a table.
func cell(format string, v float64) string {
	switch format {
	case "bytes":
		return fmtBytes(int64(v))
	case "bool":
		return strconv.FormatBool(v != 0)
	default:
		return fmt.Sprintf(format, v)
	}
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

// storedPayload writes ds with opts to a fresh two-tier stack and returns
// the bytes of its stored payloads and their share of the raw size.
func storedPayload(ds *core.Dataset, opts core.Options) (int64, float64, error) {
	rep, err := core.Write(context.Background(), newIO(), ds, opts)
	if err != nil {
		return 0, 0, err
	}
	var payload int64
	for _, b := range rep.PayloadBytes {
		payload += b
	}
	return payload, float64(payload) / float64(rep.RawBytes), nil
}
