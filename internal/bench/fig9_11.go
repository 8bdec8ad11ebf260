package bench

import (
	"context"
	"fmt"
	"time"

	"repro/internal/analysis"
	"repro/internal/core"
)

// pipelineFigure measures the analytics pipeline for a dataset and returns
// the two panels of Figs. 9–11:
//
//   - (a) the "None" baseline reads the raw full-accuracy data from the
//     slow tier (no decompression, no restoration), and each decimation
//     ratio d analyzes the level with that ratio, restored progressively
//     from the base through the stored deltas;
//   - (b) full accuracy restored from base + all deltas, one configuration
//     per base decimation ratio, against the same raw read.
//
// Timings are taken on a *warm* reader: the first retrieval primes the
// static mesh-hierarchy and mapping caches, and the reported numbers come
// from a second retrieval that pays only data/delta I/O. This mirrors the
// paper's workloads, where the mesh is written once while fields are
// analyzed many times. detect, when non-nil, runs the analysis phase (blob
// detection for XGC1) on each view of panel (a).
func (r *Runner) pipelineFigure(title, name string, ds *core.Dataset, maxRatio int,
	detect func(m *core.View) (float64, error)) (*figure, error) {
	ctx := context.Background()
	a := pipelineTable("(a) retrieval time per decimation ratio", false)
	if detect != nil {
		a = pipelineTable("(a) end-to-end analysis time per decimation ratio", true)
	}
	b := pipelineTable("(b) restoring full accuracy from base + deltas", false)

	// Baseline: raw full-accuracy product on the slow tier.
	rawIO := newIO()
	if _, err := core.WriteRaw(ctx, rawIO, ds); err != nil {
		return nil, err
	}
	rawReader, err := core.OpenRawReader(rawIO, ds.Name)
	if err != nil {
		return nil, err
	}
	if _, err := rawReader.Retrieve(ctx); err != nil { // prime mesh cache
		return nil, err
	}
	rawView, err := rawReader.Retrieve(ctx)
	if err != nil {
		return nil, err
	}
	none, err := viewRow("None", rawView, detect)
	if err != nil {
		return nil, err
	}
	a.rows = append(a.rows, none)
	none, _ = viewRow("None", rawView, nil)
	b.rows = append(b.rows, none)

	levels := levelsForRatio(maxRatio)
	rd, err := r.warmReader(ctx, ds, levels)
	if err != nil {
		return nil, err
	}
	for l := levels - 1; l >= 1; l-- { // coarsest (base) first, like scanning up the ratios
		v, err := rd.Retrieve(ctx, l)
		if err != nil {
			return nil, err
		}
		rw, err := viewRow(ratioLabel(1<<l), v, detect)
		if err != nil {
			return nil, err
		}
		a.rows = append(a.rows, rw)
	}

	for ratio := 2; ratio <= maxRatio; ratio *= 2 {
		crd, err := r.warmReader(ctx, ds, levelsForRatio(ratio))
		if err != nil {
			return nil, err
		}
		v, err := crd.Retrieve(ctx, 0)
		if err != nil {
			return nil, err
		}
		rw, _ := viewRow(ratioLabel(ratio), v, nil)
		b.rows = append(b.rows, rw)
	}
	return &figure{
		title:    title,
		workload: fmt.Sprintf("%s, %d vertices (%s raw)", name, len(ds.Data), fmtBytes(int64(8*len(ds.Data)))),
		tables:   []table{a, b},
	}, nil
}

// warmReader writes ds as a hierarchy of levels to a fresh stack and
// returns a reader whose mesh and mapping caches one full-accuracy
// retrieval has primed.
func (r *Runner) warmReader(ctx context.Context, ds *core.Dataset, levels int) (*core.Reader, error) {
	aio := newIO()
	if _, err := core.Write(ctx, aio, ds, core.Options{Levels: levels, RelTolerance: 1e-4, Workers: r.Workers}); err != nil {
		return nil, err
	}
	rd, err := core.OpenReader(ctx, aio, ds.Name)
	if err != nil {
		return nil, err
	}
	_, err = rd.Retrieve(ctx, 0)
	return rd, err
}

// pipelineTable starts one panel of Figs. 9–11: phase times in
// milliseconds, their total and the bytes read; withDetect adds the
// blob-detection phase.
func pipelineTable(caption string, withDetect bool) table {
	t := table{caption: caption, heads: []string{"decimation", "I/O(ms)", "decompress(ms)", "restore(ms)"}}
	if withDetect {
		t.heads = append(t.heads, "blob detect(ms)")
	}
	t.heads = append(t.heads, "total(ms)", "bytes read")
	t.formats = make([]string, len(t.heads)-1)
	for i := range t.formats {
		t.formats[i] = "%.2f"
	}
	t.formats[len(t.formats)-1] = "bytes"
	return t
}

// viewRow lays out v's costs as one row of a pipelineTable; detect, when
// non-nil, runs the analysis phase on v and adds its time. The error is
// detect's.
func viewRow(label string, v *core.View, detect func(*core.View) (float64, error)) (row, error) {
	tm := v.Timings
	vals := []float64{tm.IOSeconds, tm.DecompressSeconds, tm.RestoreSeconds}
	if detect != nil {
		sec, err := detect(v)
		if err != nil {
			return row{}, err
		}
		vals = append(vals, sec)
	}
	var total float64
	for i, sec := range vals {
		total += sec
		vals[i] = sec * 1e3
	}
	return row{label, append(vals, total*1e3, float64(tm.IOBytes))}, nil
}

// blobDetectPhase builds the detect callback for XGC1: rasterize + detect,
// returning real compute seconds.
func blobDetectPhase(w, h int) func(v *core.View) (float64, error) {
	return func(v *core.View) (float64, error) {
		t0 := time.Now()
		ras, err := analysis.Rasterize(v.Mesh, v.Data, w, h)
		if err != nil {
			return 0, err
		}
		if _, err := analysis.DetectBlobs(ras.ToGray(), ras.W, ras.H, analysis.Config1); err != nil {
			return 0, err
		}
		return time.Since(t0).Seconds(), nil
	}
}

// fig9 reproduces the XGC1 end-to-end analytics measurements: (a) the
// analysis pipeline (I/O, decompression, restoration, blob detection) per
// decimation ratio, and (b) the time to restore full accuracy from the base
// dataset plus deltas, versus reading the raw full-accuracy data.
func (r *Runner) fig9() (*figure, error) {
	maxRatio, rasterSize := 32, 256
	if r.Scale == ScaleQuick {
		maxRatio, rasterSize = 8, 96
	}
	f, err := r.pipelineFigure("Figure 9: XGC1 progressive data exploration",
		"XGC1 dpot", r.xgc1Large().Dataset, maxRatio, blobDetectPhase(rasterSize, rasterSize))
	if err != nil {
		return nil, err
	}
	f.workload += ", 2-tier tmpfs+Lustre model"
	return f, nil
}

// fig10 is the GenASiS analogue of Fig. 9 (no blob-detection phase).
func (r *Runner) fig10() (*figure, error) {
	maxRatio := 32
	if r.Scale == ScaleQuick {
		maxRatio = 8
	}
	return r.pipelineFigure("Figure 10: GenASiS progressive retrieval",
		"GenASiS normVec magnitude", r.genasis(), maxRatio, nil)
}

// fig11 is the CFD analogue; the paper sweeps only up to 8x on the small
// jet mesh.
func (r *Runner) fig11() (*figure, error) {
	maxRatio := 8
	if r.Scale == ScaleQuick {
		maxRatio = 4
	}
	return r.pipelineFigure("Figure 11: CFD progressive retrieval",
		"CFD pressure", r.cfd(), maxRatio, nil)
}
