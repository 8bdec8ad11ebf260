// Command canopus-refactor generates one of the paper's synthetic workloads
// and refactors it into a base dataset plus deltas across a file-backed
// two-tier storage hierarchy (the Fig. 1 write path). The products can then
// be explored with canopus-restore, canopus-blob, and canopus-inspect.
//
// Usage:
//
//	canopus-refactor -app xgc1 -levels 4 -dir /tmp/canopus
//	canopus-refactor -app genasis -codec sz -tol 1e-5 -dir /tmp/canopus
//	canopus-refactor -app cfd -mode direct -dir /tmp/canopus
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"text/tabwriter"

	"repro/internal/adios"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/storage"
)

func main() {
	app := flag.String("app", "xgc1", "workload: xgc1, genasis, or cfd")
	dir := flag.String("dir", "canopus-data", "storage hierarchy directory")
	levels := flag.Int("levels", 3, "total accuracy levels N")
	ratio := flag.Float64("ratio", 2, "decimation ratio between adjacent levels")
	codec := flag.String("codec", "zfp", "floating-point codec: zfp, sz, fpc, flate, raw")
	tol := flag.Float64("tol", 1e-6, "relative error tolerance for lossy codecs")
	mode := flag.String("mode", "delta", "refactoring mode: delta (Canopus) or direct (baseline)")
	estimator := flag.String("estimator", "mean", "delta estimator: mean or barycentric")
	transport := flag.String("transport", "posix", "ADIOS transport: posix, mpi-aggregate, staging")
	chunks := flag.Int("chunks", 1, "spatial delta tiles per axis (enables focused regional reads)")
	seed := flag.Int64("seed", 1, "workload seed")
	workers := flag.Int("workers", 0, "concurrent pipeline workers (0 = NumCPU, 1 = serial)")
	codecChunk := flag.Int("codec-chunk", 0, "values per chunk of the chunked codec container (0 = default, negative = plain v1 streams)")
	var ocli obs.CLI
	ocli.Bind(flag.CommandLine)
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	ctx, finish, err := ocli.Start(ctx, "canopus-refactor")
	if err == nil {
		err = run(ctx, *app, *dir, *levels, *ratio, *codec, *tol, *mode, *estimator, *transport, *chunks, *seed, *workers, *codecChunk)
		if ferr := finish(); err == nil {
			err = ferr
		}
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "canopus-refactor: %v\n", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, app, dir string, levels int, ratio float64, codec string, tol float64, modeStr, estimator, transport string, chunks int, seed int64, workers, codecChunk int) error {
	ds, err := makeDataset(app, seed)
	if err != nil {
		return err
	}
	mode, err := core.ModeByName(modeStr)
	if err != nil {
		return err
	}
	tr, err := adios.TransportByName(transport)
	if err != nil {
		return err
	}
	h, err := storage.FileTwoTier(dir, 0)
	if err != nil {
		return err
	}
	aio := adios.NewIO(h, tr)
	rep, err := core.Write(ctx, aio, ds, core.Options{
		Levels:        levels,
		RatioPerLevel: ratio,
		Codec:         codec,
		RelTolerance:  tol,
		Estimator:     estimator,
		Mode:          mode,
		Chunks:        chunks,
		Workers:       workers,
		CodecChunk:    codecChunk,
	})
	if err != nil {
		return err
	}

	fmt.Printf("refactored %q (%s, %d vertices) into %d levels under %s\n",
		ds.Name, app, ds.Mesh.NumVerts(), rep.Levels, dir)
	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "product\tvertices\tpayload bytes\tcontainer bytes\ttier")
	for i, p := range rep.Placements {
		// Placements are recorded base first.
		l := rep.Levels - 1 - i
		fmt.Fprintf(tw, "%s\t%d\t%d\t%d\t%s\n",
			p.Key, rep.VertexCounts[l], rep.PayloadBytes[l], p.Cost.Bytes, p.TierName)
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	var payload int64
	for _, b := range rep.PayloadBytes {
		payload += b
	}
	fmt.Printf("data payload: raw %d B -> compressed %d B (%.2fx reduction); containers incl. mesh hierarchy + mappings: %d B\n",
		rep.RawBytes, payload, float64(rep.RawBytes)/float64(payload), rep.StoredBytes())
	fmt.Printf("codec %s, abs tolerance %.3g\n", rep.Codec, rep.Tolerance)
	if len(rep.Bounds) > 0 {
		fmt.Printf("error bounds per level (coarse to fine):")
		for l := rep.Levels - 1; l >= 0; l-- {
			fmt.Printf(" L%d=%.3g", l, rep.Bounds[l])
		}
		fmt.Println()
	}
	// The level units run beside the decimation chain, so their busy time
	// overlaps it and the phases need not sum to the write's wall time.
	fmt.Printf("phases: decimate chain %.1f ms; level units' busy time, beside it: delta %.1f ms, compress %.1f ms; simulated I/O %.1f ms\n",
		rep.Timings.DecimateSeconds*1e3, rep.Timings.DeltaSeconds*1e3,
		rep.Timings.CompressSeconds*1e3, rep.Timings.IOSeconds*1e3)
	return nil
}

func makeDataset(app string, seed int64) (*core.Dataset, error) {
	switch app {
	case "xgc1":
		return sim.XGC1(sim.XGC1Config{Seed: seed}).Dataset, nil
	case "genasis":
		return sim.GenASiS(sim.GenASiSConfig{Seed: seed}), nil
	case "cfd":
		return sim.CFD(sim.CFDConfig{Seed: seed}), nil
	default:
		return nil, fmt.Errorf("unknown app %q (want xgc1, genasis, or cfd)", app)
	}
}
