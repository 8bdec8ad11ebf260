package bench

import (
	"context"
	"fmt"

	"repro/internal/adios"
	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/decimate"
	"repro/internal/sim"
	"repro/internal/storage"
)

// ablation quantifies the design choices DESIGN.md calls out: the delta
// estimator form (the paper fixes α=β=γ=1/3 and defers the optimal form),
// the edge-collapse priority, the delta codec, the placement policy, and
// the campaign write path.
func (r *Runner) ablation() (*figure, error) {
	f := &figure{title: "Ablation: Canopus design choices"}
	for _, part := range []func() (table, error){
		r.ablationEstimator, r.ablationPriority, r.ablationCodec, r.ablationPlacement, r.ablationSeries,
	} {
		t, err := part()
		if err != nil {
			return nil, err
		}
		f.tables = append(f.tables, t)
	}
	return f, nil
}

// ablationSeries quantifies the campaign write path: per-timestep writes
// through the shared-hierarchy SeriesWriter versus standalone Write calls.
// The paper's applications write a static mesh once and fields per step
// (§II-A), so the amortization is the realistic operating point.
func (r *Runner) ablationSeries() (table, error) {
	steps := 4
	cfg := sim.XGC1Config{}
	if r.Scale == ScaleQuick {
		cfg = sim.XGC1Config{Rings: 12, Segments: 128}
	}
	seq := sim.XGC1Sequence(cfg, steps)
	m := seq[0].Dataset.Mesh

	var aloneBytes int64
	var aloneCompute float64
	for s, snap := range seq {
		aio := newIO()
		snap.Dataset.Name = fmt.Sprintf("dpot-t%d", s)
		rep, err := core.Write(context.Background(), aio, snap.Dataset, core.Options{Levels: 3, RelTolerance: 1e-4, Workers: r.Workers})
		if err != nil {
			return table{}, err
		}
		aloneBytes += rep.StoredBytes()
		aloneCompute += rep.Timings.DecimateSeconds + rep.Timings.DeltaSeconds + rep.Timings.CompressSeconds
	}

	aio := newIO()
	sw, err := core.NewSeriesWriter(context.Background(), aio, "dpot", m, 2.5, core.Options{Levels: 3, RelTolerance: 1e-4, Workers: r.Workers})
	if err != nil {
		return table{}, err
	}
	seriesBytes := sw.HierarchyBytes()
	var seriesCompute float64
	for _, snap := range seq {
		rep, err := sw.WriteStep(context.Background(), snap.Dataset.Data)
		if err != nil {
			return table{}, err
		}
		seriesBytes += rep.PayloadBytes
		seriesCompute += rep.Timings.DecimateSeconds + rep.Timings.DeltaSeconds + rep.Timings.CompressSeconds
	}

	return table{
		caption: "-- campaign writes: standalone per-step vs shared-hierarchy series --",
		heads:   []string{"strategy", fmt.Sprintf("stored (%d steps)", steps), "write compute(ms)"},
		formats: []string{"bytes", "%.2f"},
		rows: []row{
			{"standalone", []float64{float64(aloneBytes), aloneCompute * 1e3}},
			{"series (shared hierarchy)", []float64{float64(seriesBytes), seriesCompute * 1e3}},
		},
	}, nil
}

func (r *Runner) ablationEstimator() (table, error) {
	t := table{
		caption: "-- estimator: mean (paper, α=β=γ=1/3) vs barycentric interpolation --",
		heads:   []string{"estimator", "stored payload", "normalized"},
		formats: []string{"bytes", "%.4f"},
	}
	for _, est := range []string{"mean", "barycentric"} {
		payload, normalized, err := storedPayload(r.xgc1().Dataset, core.Options{
			Levels: 3, RelTolerance: 1e-4, Estimator: est, Workers: r.Workers,
		})
		if err != nil {
			return table{}, err
		}
		t.rows = append(t.rows, row{est, []float64{float64(payload), normalized}})
	}
	return t, nil
}

func (r *Runner) ablationPriority() (table, error) {
	ds := r.xgc1().Dataset

	// Reference: blobs detected at full accuracy.
	rasterN := 256
	ratio := 16.0
	if r.Scale == ScaleQuick {
		rasterN = 96
		ratio = 8
	}
	refRas, err := analysis.Rasterize(ds.Mesh, ds.Data, rasterN, rasterN)
	if err != nil {
		return table{}, err
	}
	ref, err := analysis.DetectBlobs(refRas.ToGray(), refRas.W, refRas.H, analysis.Config1)
	if err != nil {
		return table{}, err
	}

	t := table{
		caption: "-- collapse priority: shortest-edge (paper) vs data-weighted vs hash order --",
		heads: []string{"priority", fmt.Sprintf("#blobs @%.0fx", ratio),
			fmt.Sprintf("overlap vs full (%d blobs)", len(ref))},
		formats: []string{"%.0f", "%.2f"},
	}
	for _, p := range []struct {
		name string
		fn   decimate.Priority
	}{
		{"shortest-edge", decimate.EdgeLength},
		{"data-weighted", decimate.DataWeighted},
		{"hash-order", decimate.HashOrder},
	} {
		res, err := decimate.Decimate(ds.Mesh, ds.Data,
			decimate.TargetForRatio(ds.Mesh.NumVerts(), ratio), decimate.Options{Priority: p.fn})
		if err != nil {
			return table{}, err
		}
		ras, err := analysis.Rasterize(res.Coarse, res.Data, rasterN, rasterN)
		if err != nil {
			return table{}, err
		}
		blobs, err := analysis.DetectBlobs(ras.ToGray(), ras.W, ras.H, analysis.Config1)
		if err != nil {
			return table{}, err
		}
		t.rows = append(t.rows, row{p.name, []float64{float64(len(blobs)), analysis.OverlapRatio(blobs, ref)}})
	}
	return t, nil
}

func (r *Runner) ablationCodec() (table, error) {
	ds := r.xgc1().Dataset
	t := table{
		caption: "-- delta codec: zfp vs sz vs fpc vs flate --",
		heads:   []string{"codec", "lossless", "stored payload", "normalized"},
		formats: []string{"bool", "bytes", "%.4f"},
	}
	for _, name := range []string{"zfp", "sz", "fpc", "flate"} {
		payload, normalized, err := storedPayload(ds, core.Options{
			Levels: 3, RelTolerance: 1e-4, Codec: name, Workers: r.Workers,
		})
		if err != nil {
			return table{}, err
		}
		lossless := 0.0
		if name == "fpc" || name == "flate" {
			lossless = 1
		}
		t.rows = append(t.rows, row{name, []float64{lossless, float64(payload), normalized}})
	}
	return t, nil
}

func (r *Runner) ablationPlacement() (table, error) {
	ds := r.xgc1().Dataset
	t := table{
		caption: "-- placement: base-on-fastest (paper) vs everything-on-PFS --",
		heads:   []string{"placement", "base retrieval I/O(ms)"},
		formats: []string{"%.2f"},
	}
	for _, p := range []struct {
		name string
		aio  *adios.IO
	}{
		{"tiered (Canopus)", newIO()},
		// A zero-capacity fast tier forces everything to the PFS.
		{"flat (PFS only)", adios.NewIO(storage.TitanTwoTier(1), nil)},
	} {
		if _, err := core.Write(context.Background(), p.aio, ds, core.Options{Levels: 3, RelTolerance: 1e-4, Workers: r.Workers}); err != nil {
			return table{}, err
		}
		rd, err := core.OpenReader(context.Background(), p.aio, ds.Name)
		if err != nil {
			return table{}, err
		}
		v, err := rd.Base(context.Background())
		if err != nil {
			return table{}, err
		}
		t.rows = append(t.rows, row{p.name, []float64{v.Timings.IOSeconds * 1e3}})
	}
	return t, nil
}
