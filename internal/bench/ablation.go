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

// Ablation quantifies the design choices DESIGN.md calls out: the delta
// estimator form (the paper fixes α=β=γ=1/3 and defers the optimal form),
// the edge-collapse priority, the delta codec, the placement policy, and
// the campaign write path.
func (r *Runner) Ablation() error {
	r.header("Ablation: Canopus design choices")
	if err := r.ablationEstimator(); err != nil {
		return err
	}
	if err := r.ablationPriority(); err != nil {
		return err
	}
	if err := r.ablationCodec(); err != nil {
		return err
	}
	if err := r.ablationPlacement(); err != nil {
		return err
	}
	return r.ablationSeries()
}

// ablationSeries quantifies the campaign write path: per-timestep writes
// through the shared-hierarchy SeriesWriter versus standalone Write calls.
// The paper's applications write a static mesh once and fields per step
// (§II-A), so the amortization is the realistic operating point.
func (r *Runner) ablationSeries() error {
	fmt.Fprintln(r.Out, "\n-- campaign writes: standalone per-step vs shared-hierarchy series --")
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
			return err
		}
		aloneBytes += rep.StoredBytes()
		aloneCompute += rep.Timings.DecimateSeconds + rep.Timings.DeltaSeconds + rep.Timings.CompressSeconds
	}

	aio := newIO()
	sw, err := core.NewSeriesWriter(context.Background(), aio, "dpot", m, 2.5, core.Options{Levels: 3, RelTolerance: 1e-4, Workers: r.Workers})
	if err != nil {
		return err
	}
	seriesBytes := sw.HierarchyBytes()
	var seriesCompute float64
	for _, snap := range seq {
		rep, err := sw.WriteStep(context.Background(), snap.Dataset.Data)
		if err != nil {
			return err
		}
		seriesBytes += rep.PayloadBytes
		seriesCompute += rep.Timings.DecimateSeconds + rep.Timings.DeltaSeconds + rep.Timings.CompressSeconds
	}

	tw := r.table()
	fmt.Fprintf(tw, "strategy\tstored (%d steps)\twrite compute(ms)\n", steps)
	fmt.Fprintf(tw, "standalone\t%s\t%s\n", fmtBytes(aloneBytes), ms(aloneCompute))
	fmt.Fprintf(tw, "series (shared hierarchy)\t%s\t%s\n", fmtBytes(seriesBytes), ms(seriesCompute))
	if err := tw.Flush(); err != nil {
		return err
	}
	fmt.Fprintln(r.Out, "The mesh hierarchy, mappings, and decimation are paid once per campaign,")
	fmt.Fprintln(r.Out, "not once per step — the §II-A static-mesh write pattern.")
	return nil
}

func (r *Runner) ablationEstimator() error {
	fmt.Fprintln(r.Out, "\n-- estimator: mean (paper, α=β=γ=1/3) vs barycentric interpolation --")
	tw := r.table()
	fmt.Fprintln(tw, "estimator\tstored payload\tnormalized")
	for _, est := range []string{"mean", "barycentric"} {
		aio := newIO()
		rep, err := core.Write(context.Background(), aio, r.xgc1().Dataset, core.Options{
			Levels: 3, RelTolerance: 1e-4, Estimator: est,
		})
		if err != nil {
			return err
		}
		var payload int64
		for _, b := range rep.PayloadBytes {
			payload += b
		}
		fmt.Fprintf(tw, "%s\t%s\t%.4f\n", est, fmtBytes(payload), float64(payload)/float64(rep.RawBytes))
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	fmt.Fprintln(r.Out, "Barycentric weighting predicts fine vertices better, shrinking deltas —")
	fmt.Fprintln(r.Out, "evidence for the paper's deferred 'optimal Estimate(·)' question.")
	return nil
}

func (r *Runner) ablationPriority() error {
	fmt.Fprintln(r.Out, "\n-- collapse priority: shortest-edge (paper) vs data-weighted vs hash order --")
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
		return err
	}
	ref, err := analysis.DetectBlobs(refRas.ToGray(), refRas.W, refRas.H, analysis.Config1)
	if err != nil {
		return err
	}

	tw := r.table()
	fmt.Fprintf(tw, "priority\t#blobs @%.0fx\toverlap vs full (%d blobs)\n", ratio, len(ref))
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
			return err
		}
		ras, err := analysis.Rasterize(res.Coarse, res.Data, rasterN, rasterN)
		if err != nil {
			return err
		}
		blobs, err := analysis.DetectBlobs(ras.ToGray(), ras.W, ras.H, analysis.Config1)
		if err != nil {
			return err
		}
		fmt.Fprintf(tw, "%s\t%d\t%.2f\n", p.name, len(blobs), analysis.OverlapRatio(blobs, ref))
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	fmt.Fprintln(r.Out, "Weighting collapses by the data jump preserves blob features deeper into")
	fmt.Fprintln(r.Out, "the hierarchy — the 'application dependent' priority §III-C1 defers.")
	return nil
}

func (r *Runner) ablationCodec() error {
	fmt.Fprintln(r.Out, "\n-- delta codec: zfp vs sz vs fpc vs flate --")
	ds := r.xgc1().Dataset
	tw := r.table()
	fmt.Fprintln(tw, "codec\tlossless\tstored payload\tnormalized")
	for _, name := range []string{"zfp", "sz", "fpc", "flate"} {
		aio := newIO()
		rep, err := core.Write(context.Background(), aio, ds, core.Options{
			Levels: 3, RelTolerance: 1e-4, Codec: name,
		})
		if err != nil {
			return err
		}
		var payload int64
		for _, b := range rep.PayloadBytes {
			payload += b
		}
		lossless := name == "fpc" || name == "flate"
		fmt.Fprintf(tw, "%s\t%v\t%s\t%.4f\n", name, lossless,
			fmtBytes(payload), float64(payload)/float64(rep.RawBytes))
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	fmt.Fprintln(r.Out, "Error-bounded codecs (zfp, sz) reduce far more than the lossless ones —")
	fmt.Fprintln(r.Out, "the <2x lossless ceiling the paper's §V cites.")
	return nil
}

func (r *Runner) ablationPlacement() error {
	fmt.Fprintln(r.Out, "\n-- placement: base-on-fastest (paper) vs everything-on-PFS --")
	ds := r.xgc1().Dataset
	tw := r.table()
	fmt.Fprintln(tw, "placement\tbase retrieval I/O(ms)")
	// Paper placement: two tiers.
	aio := newIO()
	if _, err := core.Write(context.Background(), aio, ds, core.Options{Levels: 3, RelTolerance: 1e-4, Workers: r.Workers}); err != nil {
		return err
	}
	rd, err := core.OpenReader(context.Background(), aio, ds.Name)
	if err != nil {
		return err
	}
	v, err := rd.Base(context.Background())
	if err != nil {
		return err
	}
	fmt.Fprintf(tw, "tiered (Canopus)\t%s\n", ms(v.Timings.IOSeconds))

	// Flat placement: zero-capacity fast tier forces everything to PFS.
	flat := adios.NewIO(storage.TitanTwoTier(1), nil)
	if _, err := core.Write(context.Background(), flat, ds, core.Options{Levels: 3, RelTolerance: 1e-4, Workers: r.Workers}); err != nil {
		return err
	}
	rdFlat, err := core.OpenReader(context.Background(), flat, ds.Name)
	if err != nil {
		return err
	}
	vFlat, err := rdFlat.Base(context.Background())
	if err != nil {
		return err
	}
	fmt.Fprintf(tw, "flat (PFS only)\t%s\n", ms(vFlat.Timings.IOSeconds))
	if err := tw.Flush(); err != nil {
		return err
	}
	fmt.Fprintln(r.Out, "Fast-tier base placement is what makes quick exploration quick.")
	return nil
}
