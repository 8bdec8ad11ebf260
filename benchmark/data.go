package main

import (
	"context"
	"crypto/sha256"
	"fmt"
	"math"
	"runtime"
	"time"

	"repro/internal/adios"
	"repro/internal/core"
	"repro/internal/mesh"
	"repro/internal/sim"
	"repro/internal/storage"
)

// writeOpts is the one refactoring configuration every workload uses: codec
// zfp, Workers 0 (NumCPU).
var writeOpts = core.Options{Levels: 4, Chunks: 8, RelTolerance: 1e-4}

// setupRounds is how often a run repeats its whole set-up; setup_s is the
// median round, and the state of the last round is the one measured.
const setupRounds = 3

// config is one run's command line.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	outDir   string
	// tiny shrinks every mesh to Rings 8, Segments 64 and the campaign count
	// to 4. Only smoke_test.go sets it; no flag does.
	tiny bool
}

// plane is the paper's §IV-C poloidal plane: 21,120 vertices, 165 KiB a field.
func (c config) plane(seed int64) sim.XGC1Config {
	if c.tiny {
		return sim.XGC1Config{Rings: 8, Segments: 64, Seed: seed}
	}
	return sim.XGC1Config{Seed: seed}
}

// plane2x is 39,200 vertices, 306 KiB a field: the scale of ROADMAP's
// write-path profile.
func (c config) plane2x(seed int64) sim.XGC1Config {
	if c.tiny {
		return sim.XGC1Config{Rings: 8, Segments: 64, Seed: seed}
	}
	return sim.XGC1Config{Rings: 48, Segments: 800, Seed: seed}
}

// dataSeed spreads a run's --seed over its datasets. sim treats seed 0 as 1,
// so the result is never 0, and neighbouring run seeds share no dataset.
func dataSeed(seed int64, i int) int64 { return seed*64 + 1 + int64(i) }

func (c config) duration() time.Duration {
	return time.Duration(c.seconds * float64(time.Second))
}

func newIO() *adios.IO { return adios.NewIO(storage.TitanTwoTier(0), nil) }

// repeatSetup runs build setupRounds times and returns the last state with
// the median wall time of a round. The collector runs between rounds,
// untimed, so one round's garbage is not the next round's pause.
func repeatSetup[T any](build func() (T, error)) (T, float64, error) {
	var st T
	secs := make([]float64, 0, setupRounds)
	for i := 0; i < setupRounds; i++ {
		var zero T
		st = zero
		runtime.GC()
		t0 := time.Now()
		var err error
		if st, err = build(); err != nil {
			return st, 0, err
		}
		secs = append(secs, time.Since(t0).Seconds())
	}
	return st, median(secs), nil
}

func fieldRange(fields ...[]float64) float64 {
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, f := range fields {
		for _, v := range f {
			lo = math.Min(lo, v)
			hi = math.Max(hi, v)
		}
	}
	return hi - lo
}

func maxAbsDiff(a, b []float64) float64 {
	if len(a) != len(b) {
		return math.Inf(1)
	}
	var m float64
	for i := range a {
		m = math.Max(m, math.Abs(a[i]-b[i]))
	}
	return m
}

// withinBound allows for the rounding of the comparison itself.
func withinBound(err, bound float64) bool {
	return bound >= 0 && err <= bound*(1+1e-9)+1e-300
}

// hashKeys is SHA-256 over the stored bytes of keys, in order. Key names are
// left out so that two campaign steps holding the same field compare equal.
func hashKeys(ctx context.Context, h *storage.Hierarchy, keys []string) ([32]byte, error) {
	sum := sha256.New()
	for _, k := range keys {
		data, _, err := h.Get(ctx, k, 1)
		if err != nil {
			return [32]byte{}, fmt.Errorf("hash %s: %w", k, err)
		}
		sum.Write(data)
	}
	var out [32]byte
	copy(out[:], sum.Sum(nil))
	return out, nil
}

// tilesOf groups a mesh's vertex ids into the n×n grid of tiles over its
// bounding box, the partition core stores deltas in. It exists so that the
// codec probes encode and decode pieces of the sizes the write path does.
func tilesOf(m *mesh.Mesh, n int) [][]int32 {
	minX, minY, maxX, maxY := m.Bounds()
	w, h := maxX-minX, maxY-minY
	if w <= 0 {
		w = 1
	}
	if h <= 0 {
		h = 1
	}
	clamp := func(t int) int { return max(0, min(n-1, t)) }
	tiles := make([][]int32, n*n)
	for vi, v := range m.Verts {
		tx := clamp(int(float64(n) * (v.X - minX) / w))
		ty := clamp(int(float64(n) * (v.Y - minY) / h))
		tiles[ty*n+tx] = append(tiles[ty*n+tx], int32(vi))
	}
	return tiles
}

// gather copies the values of ids out of vals.
func gather(vals []float64, ids []int32) []float64 {
	out := make([]float64, len(ids))
	for i, id := range ids {
		out[i] = vals[id]
	}
	return out
}

// memDelta reads the allocator's counters around fn.
func memDelta(fn func()) (mallocs uint64, bytes uint64) {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	fn()
	runtime.ReadMemStats(&b)
	return b.Mallocs - a.Mallocs, b.TotalAlloc - a.TotalAlloc
}

// runtimeMetrics reports the collector's work since base and the heap's
// high-water mark (bytes obtained from the operating system for the heap,
// which does not shrink).
func runtimeMetrics(res *result, base *runtime.MemStats) {
	var now runtime.MemStats
	runtime.ReadMemStats(&now)
	res.set("runtime.peak_heap_MB", float64(now.HeapSys)/1e6, 1)
	res.set("runtime.gc_pause_total_ms", float64(now.PauseTotalNs-base.PauseTotalNs)/1e6, int(now.NumGC-base.NumGC))
	res.set("runtime.gc_cycles", float64(now.NumGC-base.NumGC), 1)
}

// overheadPct is how much slower the traced median is than the untraced one.
func overheadPct(traced, untraced float64) float64 {
	if untraced <= 0 {
		return 0
	}
	return 100 * (traced/untraced - 1)
}
