// Command canopus-restore progressively restores a refactored variable to a
// chosen accuracy level (the Fig. 1 read path) and reports per-phase costs
// and, when restoring full accuracy of a lossy-coded variable, the error
// bound in effect.
//
// Usage:
//
//	canopus-restore -dir /tmp/canopus -name dpot -level 0
//	canopus-restore -dir /tmp/canopus -name dpot -level 2 -ascii
package main

import (
	"context"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"strconv"
	"strings"

	"repro/internal/adios"
	"repro/internal/analysis"
	"repro/internal/compress"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/place"
	"repro/internal/storage"
)

func main() {
	dir := flag.String("dir", "canopus-data", "storage hierarchy directory")
	name := flag.String("name", "dpot", "variable name")
	level := flag.Int("level", 0, "target accuracy level (0 = full)")
	tolerance := flag.Float64("tolerance", 0, "error target: retrieve the cheapest accuracy whose recorded bound meets this absolute error (overrides -level; 0 = off)")
	region := flag.String("region", "", "focused retrieval region as minX,minY,maxX,maxY")
	ascii := flag.Bool("ascii", false, "render the restored field as text art")
	workers := flag.Int("workers", 0, "concurrent retrieval workers (0 = NumCPU, 1 = serial)")
	cacheMB := flag.Int("cache-mb", 0, "page cache size in MiB shared across reads (0 = no cache)")
	tileCacheMB := flag.Int("tile-cache-mb", 0, "decoded-tile cache size in MiB shared across reads: repeated retrievals over the same tiles skip decompression (0 = no cache)")
	degrade := flag.Bool("degrade", false, "return the best accuracy achieved when a delta level is corrupt or unreachable, instead of failing")
	placePolicy := flag.String("place-policy", "lru", "placement policy, one of "+strings.Join(place.Names(), ", ")+"; every policy but lru runs a background promoter that physically reorganizes the hierarchy around observed reads")
	var ocli obs.CLI
	ocli.Bind(flag.CommandLine)
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	ctx, finish, err := ocli.Start(ctx, "canopus-restore")
	if err == nil {
		err = run(ctx, *dir, *name, *level, *tolerance, *region, *ascii, *workers, *cacheMB, *tileCacheMB, *degrade, *placePolicy)
		if ferr := finish(); err == nil {
			err = ferr
		}
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "canopus-restore: %v\n", err)
		os.Exit(1)
	}
}

// printDegradation reports a degraded retrieval on stderr so scripted
// consumers of stdout notice without having to parse the data lines.
func printDegradation(d *core.Degradation) {
	if d == nil {
		return
	}
	fmt.Fprintf(os.Stderr, "canopus-restore: DEGRADED: wanted level %d, achieved level %d (%d level(s) lost): %s\n",
		d.RequestedLevel, d.AchievedLevel, d.LevelsLost, d.Reason)
	if d.RequestedTolerance > 0 {
		fmt.Fprintf(os.Stderr, "canopus-restore: requested error target %.3g\n", d.RequestedTolerance)
	}
	if d.ErrorBound >= 0 {
		fmt.Fprintf(os.Stderr, "canopus-restore: achieved error bound %.3g\n", d.ErrorBound)
	}
}

func parseRegion(s string) (minX, minY, maxX, maxY float64, err error) {
	parts := strings.Split(s, ",")
	if len(parts) != 4 {
		return 0, 0, 0, 0, fmt.Errorf("region %q: want minX,minY,maxX,maxY", s)
	}
	vals := make([]float64, 4)
	for i, p := range parts {
		if vals[i], err = strconv.ParseFloat(strings.TrimSpace(p), 64); err != nil {
			return 0, 0, 0, 0, fmt.Errorf("region %q: %w", s, err)
		}
	}
	return vals[0], vals[1], vals[2], vals[3], nil
}

func run(ctx context.Context, dir, name string, level int, tolerance float64, region string, ascii bool, workers, cacheMB, tileCacheMB int, degrade bool, placePolicy string) error {
	h, err := storage.FileTwoTier(dir, 0)
	if err != nil {
		return err
	}
	pol, err := place.ByName(placePolicy)
	if err != nil {
		return err
	}
	h.SetPolicy(pol)
	if pol.Name() != "lru" {
		// Adaptive placement: a background promoter migrates hot
		// containers toward the fast tier while this process reads. The
		// hierarchy is file-backed, so moves persist for later sessions.
		pr := h.NewPromoter(0)
		pr.Start()
		defer pr.Stop()
	}
	aio := adios.NewIO(h, nil)
	if cacheMB > 0 {
		aio.SetCache(adios.NewPageCache(int64(cacheMB)<<20, 0))
	}
	if tileCacheMB > 0 {
		aio.SetTileCache(compress.NewTileCache(int64(tileCacheMB) << 20))
	}
	rd, err := core.OpenReader(ctx, aio, name)
	if err != nil {
		return err
	}
	rd.SetWorkers(workers)
	rd.SetDegrade(degrade)
	if region != "" {
		if tolerance > 0 {
			return fmt.Errorf("-tolerance does not combine with -region (focused reads are level-addressed)")
		}
		minX, minY, maxX, maxY, err := parseRegion(region)
		if err != nil {
			return err
		}
		rv, err := rd.RetrieveRegion(ctx, level, minX, minY, maxX, maxY)
		if err != nil {
			return err
		}
		fmt.Printf("%s level %d: focused retrieval of [%g,%g]x[%g,%g]\n", name, level, minX, maxX, minY, maxY)
		fmt.Printf("restored %d of %d vertices, reading %d bytes modeled (%d real) in %.2f ms simulated I/O\n",
			rv.CountHave(), rv.Mesh.NumVerts(), rv.Timings.IOBytes, rv.Timings.IORealBytes, rv.Timings.IOSeconds*1e3)
		printDegradation(rv.Degradation)
		return nil
	}
	var v *core.View
	if tolerance > 0 {
		v, err = rd.RetrieveToTolerance(ctx, tolerance)
	} else {
		v, err = rd.Retrieve(ctx, level)
	}
	if err != nil {
		return err
	}
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, x := range v.Data {
		lo = math.Min(lo, x)
		hi = math.Max(hi, x)
	}
	if tolerance > 0 {
		fmt.Printf("%s restored to level %d of %d (mode %s) for error target %.3g\n",
			name, v.Level, rd.Levels(), rd.Mode(), tolerance)
	} else {
		fmt.Printf("%s restored to level %d of %d (mode %s)\n", name, v.Level, rd.Levels(), rd.Mode())
	}
	printDegradation(v.Degradation)
	if v.ErrorBound >= 0 {
		fmt.Printf("error bound at this accuracy: %.3g\n", v.ErrorBound)
	}
	fmt.Printf("mesh: %d vertices, %d triangles\n", v.Mesh.NumVerts(), v.Mesh.NumTris())
	fmt.Printf("data: range [%.4g, %.4g], stddev %.4g\n", lo, hi, analysis.StdDev(v.Data))
	fmt.Printf("codec error bound: %.3g per restored level\n", rd.Tolerance())
	fmt.Printf("cost: I/O %.2f ms (%d bytes modeled, %d real), decompress %.2f ms, restore %.2f ms\n",
		v.Timings.IOSeconds*1e3, v.Timings.IOBytes, v.Timings.IORealBytes,
		v.Timings.DecompressSeconds*1e3, v.Timings.RestoreSeconds*1e3)

	if ascii {
		ras, err := analysis.Rasterize(v.Mesh, v.Data, 160, 160)
		if err != nil {
			return err
		}
		fmt.Println()
		fmt.Print(ras.RenderASCII(76))
	}
	return nil
}
