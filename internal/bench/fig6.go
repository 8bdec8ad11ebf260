package bench

import (
	"context"
	"fmt"
	"time"

	"repro/internal/adios"
	"repro/internal/core"
	"repro/internal/decimate"
	"repro/internal/delta"
	"repro/internal/storage"
)

// Fig6a prints the storage-to-compute trend for U.S. leadership HPC systems
// that motivates Canopus (Fig. 6a cites the CODAR overview [31]): bytes per
// second of file-system bandwidth per million flops has fallen by more than
// an order of magnitude since 2009, so data must shrink before it hits
// storage. The series below is digitized from the paper's bar chart.
func (r *Runner) Fig6a() error {
	r.header("Figure 6a: storage-to-compute trend for large HPC systems [31]")
	series := []struct {
		year  int
		ratio float64 // bytes per sec / 1M flops
	}{
		{2009, 105}, {2013, 45}, {2017, 25}, {2021, 10}, {2024, 5},
	}
	tw := r.table()
	fmt.Fprintln(tw, "year\tbytes-per-sec / 1M flops")
	for _, p := range series {
		fmt.Fprintf(tw, "%d\t%.0f\n", p.year, p.ratio)
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	fmt.Fprintln(r.Out, "\nShape check: monotone decline; compute keeps getting cheaper relative")
	fmt.Fprintln(r.Out, "to storage, so Canopus' one-time refactoring cost keeps shrinking.")
	return nil
}

// Fig6b reproduces the write-performance breakdown: refactoring XGC1's dpot
// (the paper's 20,694 doubles, d = 2) under high, medium, and low
// storage-to-compute ratios — 32, 128, and 512 cores sharing one storage
// target. Decimation and delta/compression parallelize embarrassingly
// across cores (§III-C1: no communication), so their share shrinks as cores
// grow, while the fixed storage target makes I/O the dominant fraction in
// the low (I/O-bound) scenario.
func (r *Runner) Fig6b() error {
	r.header("Figure 6b: write time fractions vs storage-to-compute ratio")
	res := r.xgc1()
	ds := res.Dataset
	fmt.Fprintf(r.Out, "workload: XGC1 dpot, %d double-precision mesh values, decimation ratio 2\n\n", len(ds.Data))

	// Measure the serial compute phases once.
	t0 := time.Now()
	dec, err := decimate.Decimate(ds.Mesh, ds.Data, decimate.TargetForRatio(ds.Mesh.NumVerts(), 2), decimate.Options{})
	if err != nil {
		return err
	}
	decimateSec := time.Since(t0).Seconds()

	t0 = time.Now()
	mp, err := delta.Build(ds.Mesh, dec.Coarse)
	if err != nil {
		return err
	}
	d, err := delta.ComputeInto(context.Background(), nil, ds.Mesh, ds.Data, dec.Coarse, dec.Data, mp, delta.MeanEstimator{}, nil)
	if err != nil {
		return err
	}
	codec, _, err := core.CodecFor(core.Options{Levels: 2, RelTolerance: 1e-4}, ds.Data)
	if err != nil {
		return err
	}
	encBase, err := codec.Encode(dec.Data)
	if err != nil {
		return err
	}
	encDelta, err := codec.Encode(d)
	if err != nil {
		return err
	}
	deltaSec := time.Since(t0).Seconds()

	scenarios := []struct {
		label string
		cores int
	}{
		{"High (compute-bound, 32 cores)", 32},
		{"Medium (128 cores)", 128},
		{"Low (I/O-bound, 512 cores)", 512},
	}
	tw := r.table()
	fmt.Fprintln(tw, "storage-to-compute\tdecimation\tdelta+compress\tI/O\ttotal(ms)")
	for _, sc := range scenarios {
		// Per-core compute share: refactoring is local per partition.
		decC := decimateSec / float64(sc.cores)
		delC := deltaSec / float64(sc.cores)
		// All cores share one storage target through the aggregating
		// transport (one aggregator = one storage target).
		h := storage.TitanTwoTier(0)
		aio := adios.NewIO(h, adios.MPIAggregate{Ranks: sc.cores, Aggregators: 1, NetBandwidth: 1e9})
		var ioSec float64
		for i, blob := range [][]byte{encBase, encDelta} {
			p, err := aio.Transport.Write(context.Background(), h, fmt.Sprintf("fig6b-%d-%d", sc.cores, i), blob, 1)
			if err != nil {
				return err
			}
			ioSec += p.Cost.Seconds
		}
		total := decC + delC + ioSec
		fmt.Fprintf(tw, "%s\t%.1f%%\t%.1f%%\t%.1f%%\t%s\n",
			sc.label, 100*decC/total, 100*delC/total, 100*ioSec/total, ms(total))
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	fmt.Fprintln(r.Out, "\nShape check: the I/O fraction grows monotonically from the compute-bound")
	fmt.Fprintln(r.Out, "to the I/O-bound scenario, matching the paper's bars.")
	return nil
}
