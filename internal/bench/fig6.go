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

// fig6a returns the storage-to-compute trend for U.S. leadership HPC systems
// that motivates Canopus (Fig. 6a cites the CODAR overview [31]): bytes per
// second of file-system bandwidth per million flops has fallen by more than
// an order of magnitude since 2009, so data must shrink before it hits
// storage. The series below is digitized from the paper's bar chart.
func (r *Runner) fig6a() (*figure, error) {
	t := table{heads: []string{"year", "bytes-per-sec / 1M flops"}, formats: []string{"%.0f"}}
	for _, p := range []struct {
		year  string
		ratio float64 // bytes per sec / 1M flops
	}{
		{"2009", 105}, {"2013", 45}, {"2017", 25}, {"2021", 10}, {"2024", 5},
	} {
		t.rows = append(t.rows, row{p.year, []float64{p.ratio}})
	}
	return &figure{title: "Figure 6a: storage-to-compute trend for large HPC systems [31]", tables: []table{t}}, nil
}

// fig6b reproduces the write-performance breakdown: refactoring XGC1's dpot
// (the paper's 20,694 doubles, d = 2) under high, medium, and low
// storage-to-compute ratios — 32, 128, and 512 cores sharing one storage
// target. Decimation and delta/compression parallelize embarrassingly
// across cores (§III-C1: no communication), so their share shrinks as cores
// grow, while the fixed storage target makes I/O the dominant fraction in
// the low (I/O-bound) scenario.
func (r *Runner) fig6b() (*figure, error) {
	ds := r.xgc1().Dataset

	// Measure the serial compute phases once.
	t0 := time.Now()
	dec, err := decimate.Decimate(ds.Mesh, ds.Data, decimate.TargetForRatio(ds.Mesh.NumVerts(), 2), decimate.Options{})
	if err != nil {
		return nil, err
	}
	decimateSec := time.Since(t0).Seconds()

	t0 = time.Now()
	mp, err := delta.Build(ds.Mesh, dec.Coarse)
	if err != nil {
		return nil, err
	}
	d, err := delta.ComputeInto(context.Background(), nil, ds.Mesh, ds.Data, dec.Coarse, dec.Data, mp, delta.MeanEstimator{}, nil)
	if err != nil {
		return nil, err
	}
	codec, _, err := core.CodecFor(core.Options{Levels: 2, RelTolerance: 1e-4}, ds.Data)
	if err != nil {
		return nil, err
	}
	encBase, err := codec.Encode(dec.Data)
	if err != nil {
		return nil, err
	}
	encDelta, err := codec.Encode(d)
	if err != nil {
		return nil, err
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
	t := table{
		heads:   []string{"storage-to-compute", "decimation", "delta+compress", "I/O", "total(ms)"},
		formats: []string{"%.1f%%", "%.1f%%", "%.1f%%", "%.2f"},
	}
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
				return nil, err
			}
			ioSec += p.Cost.Seconds
		}
		total := decC + delC + ioSec
		t.rows = append(t.rows, row{sc.label, []float64{100 * decC / total, 100 * delC / total, 100 * ioSec / total, total * 1e3}})
	}
	return &figure{
		title:    "Figure 6b: write time fractions vs storage-to-compute ratio",
		workload: fmt.Sprintf("XGC1 dpot, %d double-precision mesh values, decimation ratio 2", len(ds.Data)),
		tables:   []table{t},
	}, nil
}
