// Command canopus-series writes and explores a multi-timestep campaign
// through the shared-hierarchy series API: the static mesh is refactored
// and stored once, each timestep stores compressed payloads only — the
// paper's §II-A write pattern. Use -write to produce a campaign and
// -step/-level to retrieve from it.
//
// Usage:
//
//	canopus-series -dir /tmp/campaign -write -steps 8
//	canopus-series -dir /tmp/campaign -step 3 -level 2
package main

import (
	"context"
	"flag"
	"fmt"
	"math"
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
	dir := flag.String("dir", "canopus-data", "storage hierarchy directory")
	name := flag.String("name", "dpot", "variable name")
	write := flag.Bool("write", false, "generate and write a campaign (otherwise retrieve)")
	steps := flag.Int("steps", 8, "timesteps to write")
	levels := flag.Int("levels", 4, "accuracy levels")
	tol := flag.Float64("tol", 1e-4, "relative error tolerance")
	seed := flag.Int64("seed", 1, "workload seed")
	step := flag.Int("step", 0, "timestep to retrieve")
	level := flag.Int("level", 0, "accuracy level to retrieve")
	workers := flag.Int("workers", 0, "concurrent pipeline workers (0 = NumCPU, 1 = serial)")
	codecChunk := flag.Int("codec-chunk", 0, "values per chunk of the chunked codec container (0 = default, negative = plain v1 streams)")
	var ocli obs.CLI
	ocli.Bind(flag.CommandLine)
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	ctx, finish, err := ocli.Start(ctx, "canopus-series")
	if err == nil {
		if *write {
			err = runWrite(ctx, *dir, *name, *steps, *levels, *tol, *seed, *workers, *codecChunk)
		} else {
			err = runRead(ctx, *dir, *name, *step, *level, *workers)
		}
		if ferr := finish(); err == nil {
			err = ferr
		}
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "canopus-series: %v\n", err)
		os.Exit(1)
	}
}

func runWrite(ctx context.Context, dir, name string, steps, levels int, tol float64, seed int64, workers, codecChunk int) error {
	h, err := storage.FileTwoTier(dir, 0)
	if err != nil {
		return err
	}
	aio := adios.NewIO(h, nil)
	seq := sim.XGC1Sequence(sim.XGC1Config{Seed: seed}, steps)

	lo, hi := math.Inf(1), math.Inf(-1)
	for _, snap := range seq {
		for _, v := range snap.Dataset.Data {
			lo = math.Min(lo, v)
			hi = math.Max(hi, v)
		}
	}
	sw, err := core.NewSeriesWriter(ctx, aio, name, seq[0].Dataset.Mesh, hi-lo, core.Options{
		Levels: levels, RelTolerance: tol, Workers: workers,
		CodecChunk: codecChunk,
	})
	if err != nil {
		return err
	}
	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "step\tpayload bytes\twrite I/O(ms)\tcompute(ms)")
	var payload int64
	for _, snap := range seq {
		rep, err := sw.WriteStep(ctx, snap.Dataset.Data)
		if err != nil {
			return err
		}
		payload += rep.PayloadBytes
		compute := rep.Timings.DecimateSeconds + rep.Timings.DeltaSeconds + rep.Timings.CompressSeconds
		fmt.Fprintf(tw, "%d\t%d\t%.2f\t%.2f\n", rep.Step, rep.PayloadBytes,
			rep.Timings.IOSeconds*1e3, compute*1e3)
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	fmt.Printf("campaign %q: %d steps under %s\n", name, steps, dir)
	fmt.Printf("shared hierarchy %d B stored once; %d B of per-step payloads\n",
		sw.HierarchyBytes(), payload)
	return nil
}

func runRead(ctx context.Context, dir, name string, step, level, workers int) error {
	h, err := storage.FileTwoTier(dir, 0)
	if err != nil {
		return err
	}
	sr, err := core.OpenSeriesReader(ctx, adios.NewIO(h, nil), name)
	if err != nil {
		return err
	}
	sr.SetWorkers(workers)
	v, err := sr.RetrieveStep(ctx, step, level)
	if err != nil {
		return err
	}
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, x := range v.Data {
		lo = math.Min(lo, x)
		hi = math.Max(hi, x)
	}
	fmt.Printf("campaign %q: %d steps, %d levels\n", name, sr.Steps(), sr.Levels())
	fmt.Printf("step %d at level %d: %d vertices, range [%.4g, %.4g]\n",
		step, v.Level, v.Mesh.NumVerts(), lo, hi)
	// The shared geometry is billed to the reader, not to the step's view.
	geo := sr.HierarchyCost()
	fmt.Printf("cost: I/O %.2f ms (%d bytes modeled, %d real), decompress %.2f ms, restore %.2f ms; geometry I/O %.2f ms (%d bytes modeled)\n",
		v.Timings.IOSeconds*1e3, v.Timings.IOBytes, v.Timings.IORealBytes,
		v.Timings.DecompressSeconds*1e3, v.Timings.RestoreSeconds*1e3,
		geo.Seconds*1e3, geo.Bytes)
	return nil
}
