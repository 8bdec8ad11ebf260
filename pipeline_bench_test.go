package repro

// BenchmarkPipelineWriteRead measures the concurrent refactor/retrieve
// engine end to end — decimate, delta, compress, tier store, then a
// full-accuracy retrieval — at workers=1 (exact serial order) versus
// workers=NumCPU. Stored products are byte-identical at every worker
// count (see TestWriteWorkersByteIdentical), so this isolates the
// wall-clock effect of the engine's worker pool.

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"testing"

	"repro/internal/adios"
	"repro/internal/core"
	"repro/internal/mesh"
	"repro/internal/storage"
)

func pipelineDataset(nx int) *core.Dataset {
	m := mesh.Rect(nx, nx, 1, 1)
	data := make([]float64, m.NumVerts())
	for i, v := range m.Verts {
		data[i] = math.Sin(5*v.X)*math.Cos(4*v.Y) + 0.3*v.X*v.Y
	}
	return &core.Dataset{Name: "dpot", Mesh: m, Data: data}
}

func benchPipeline(b *testing.B, workers int, read bool) {
	b.Helper()
	b.ReportAllocs()
	ctx := context.Background()
	// 192x192 ≈ 37k vertices: the scale of one XGC1 rank partition in the
	// paper's Titan runs (§IV), large enough that per-level compress and
	// per-chunk decompress units dominate the pool.
	ds := pipelineDataset(192)
	opts := core.Options{Levels: 4, Chunks: 8, RelTolerance: 1e-4, Workers: workers}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		aio := adios.NewIO(storage.TitanTwoTier(0), nil)
		if _, err := core.Write(ctx, aio, ds, opts); err != nil {
			b.Fatal(err)
		}
		if !read {
			continue
		}
		rd, err := core.OpenReader(ctx, aio, "dpot")
		if err != nil {
			b.Fatal(err)
		}
		rd.SetWorkers(workers)
		if _, err := rd.Retrieve(ctx, 0); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPipelineWriteRead(b *testing.B) {
	b.Run("workers=1", func(b *testing.B) { benchPipeline(b, 1, true) })
	b.Run(fmt.Sprintf("workers=%d", runtime.NumCPU()), func(b *testing.B) {
		benchPipeline(b, runtime.NumCPU(), true)
	})
}

// BenchmarkPipelineWrite times the write alone: the decimation chain, the
// level units beside it and placement. At workers=1 the units run inline
// between the chain's steps; at workers=NumCPU they overlap it.
func BenchmarkPipelineWrite(b *testing.B) {
	b.Run("workers=1", func(b *testing.B) { benchPipeline(b, 1, false) })
	b.Run(fmt.Sprintf("workers=%d", runtime.NumCPU()), func(b *testing.B) {
		benchPipeline(b, runtime.NumCPU(), false)
	})
}
