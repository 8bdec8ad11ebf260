package bench

import (
	"context"
	"fmt"

	"repro/internal/analysis"
	"repro/internal/core"
)

// blobLevels holds the per-level rasters and detections backing Figs. 7–8.
type blobLevels struct {
	ratios []int // decimation ratio per level index (1 = full accuracy)
	gray   [][]uint8
	w, h   int
	verts  []int
}

// buildBlobLevels refactors XGC1 into enough levels to cover decimation
// ratios up to 32x and rasterizes every restored level.
func (r *Runner) buildBlobLevels() (*blobLevels, error) {
	res := r.xgc1()
	ds := res.Dataset
	maxRatio := 32
	if r.Scale == ScaleQuick {
		maxRatio = 8
	}
	levels := levelsForRatio(maxRatio)
	aio := newIO()
	if _, err := core.Write(context.Background(), aio, ds, core.Options{Levels: levels, RelTolerance: 1e-4, Workers: r.Workers}); err != nil {
		return nil, err
	}
	rd, err := core.OpenReader(context.Background(), aio, ds.Name)
	if err != nil {
		return nil, err
	}
	rasterW, rasterH := 512, 512
	if r.Scale == ScaleQuick {
		rasterW, rasterH = 128, 128
	}
	out := &blobLevels{w: rasterW, h: rasterH}
	for l := 0; l < levels; l++ {
		v, err := rd.Retrieve(context.Background(), l)
		if err != nil {
			return nil, fmt.Errorf("retrieve L%d: %w", l, err)
		}
		ras, err := analysis.Rasterize(v.Mesh, v.Data, rasterW, rasterH)
		if err != nil {
			return nil, fmt.Errorf("rasterize L%d: %w", l, err)
		}
		out.ratios = append(out.ratios, 1<<l)
		out.gray = append(out.gray, ras.ToGray())
		out.verts = append(out.verts, v.Mesh.NumVerts())
	}
	return out, nil
}

// fig7 reproduces the macroscopic blob-detection gallery: blob detection on
// L0 through L5 with Config1, listing each detected blob (§IV-D).
func (r *Runner) fig7() (*figure, error) {
	bl, err := r.buildBlobLevels()
	if err != nil {
		return nil, err
	}
	f := &figure{title: "Figure 7: blob detection across accuracy levels (XGC1, Config1)"}
	for l, ratio := range bl.ratios {
		blobs, err := analysis.DetectBlobs(bl.gray[l], bl.w, bl.h, analysis.Config1)
		if err != nil {
			return nil, err
		}
		label := "full accuracy"
		if ratio > 1 {
			label = fmt.Sprintf("decimation %dx", ratio)
		}
		t := table{
			caption: fmt.Sprintf("L%d (%s, %d vertices): %d blobs", l, label, bl.verts[l], len(blobs)),
			heads:   []string{"  center(px)", "radius(px)", "area(px^2)"},
			formats: []string{"%.1f", "%.0f"},
		}
		for _, b := range blobs {
			t.rows = append(t.rows, row{fmt.Sprintf("  (%.0f, %.0f)", b.X, b.Y), []float64{b.Radius, b.Area}})
		}
		f.tables = append(f.tables, t)
	}
	return f, nil
}

// fig8 reproduces the quantitative blob evaluation: number of blobs, mean
// blob diameter, aggregate blob area, and overlap ratio against the
// full-accuracy detections, for decimation ratios {None, 2, ..., 32} and
// the paper's three detector configurations.
func (r *Runner) fig8() (*figure, error) {
	bl, err := r.buildBlobLevels()
	if err != nil {
		return nil, err
	}
	configs := []struct {
		name   string
		params analysis.BlobParams
	}{
		{"Config1 <10,200,100>", analysis.Config1},
		{"Config2 <150,200,100>", analysis.Config2},
		{"Config3 <10,200,200>", analysis.Config3},
	}
	f := &figure{title: "Figure 8: quantitative blob detection vs decimation ratio (XGC1)"}
	for _, cfg := range configs {
		ref, err := analysis.DetectBlobs(bl.gray[0], bl.w, bl.h, cfg.params)
		if err != nil {
			return nil, err
		}
		t := table{
			caption: "-- " + cfg.name + " --",
			heads:   []string{"decimation", "#blobs", "avg diameter(px)", "aggr area(px^2)", "overlap ratio"},
			formats: []string{"%.0f", "%.1f", "%.0f", "%.2f"},
		}
		for l, ratio := range bl.ratios {
			blobs, err := analysis.DetectBlobs(bl.gray[l], bl.w, bl.h, cfg.params)
			if err != nil {
				return nil, err
			}
			st := analysis.Stats(blobs)
			t.rows = append(t.rows, row{ratioLabel(ratio), []float64{
				float64(st.Count), st.AvgDiameter, st.TotalArea, analysis.OverlapRatio(blobs, ref)}})
		}
		f.tables = append(f.tables, t)
	}
	return f, nil
}

// ratioLabel names a decimation ratio as the figures print it.
func ratioLabel(ratio int) string {
	if ratio == 1 {
		return "None"
	}
	return fmt.Sprintf("%dx", ratio)
}
