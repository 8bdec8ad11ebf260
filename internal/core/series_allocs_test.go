package core_test

import (
	"context"
	"math"
	"testing"

	"repro/internal/adios"
	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/storage"
)

// TestWriteStepAllocs guards the steady-state campaign step: once the
// hierarchy is built, a step allocates per tile only its encoded stream and
// its stored payload. The tile id runs are encoded once, in
// NewSeriesWriter, and each compress unit gathers tile values into one
// reused buffer. At 39,200 vertices, Levels 4 and Chunks 8 (the
// benchmark's campaign shape) the writer that re-derived every tile's id
// runs per step measured 2,609 allocations per step.
func TestWriteStepAllocs(t *testing.T) {
	ctx := context.Background()
	steps := sim.XGC1Sequence(sim.XGC1Config{Rings: 48, Segments: 800, Seed: 3}, 4)
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, v := range steps[0].Dataset.Data {
		lo, hi = math.Min(lo, v), math.Max(hi, v)
	}
	aio := adios.NewIO(storage.TitanTwoTier(0), nil)
	sw, err := core.NewSeriesWriter(ctx, aio, "dpot", steps[0].Dataset.Mesh, hi-lo,
		core.Options{Levels: 4, Chunks: 8, RelTolerance: 1e-4, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	step := 0
	write := func() {
		if _, err := sw.WriteStep(ctx, steps[step%len(steps)].Dataset.Data); err != nil {
			t.Fatal(err)
		}
		step++
	}
	for i := 0; i < 4; i++ {
		write()
	}
	allocs := testing.AllocsPerRun(8, write)
	t.Logf("%.0f allocations per step", allocs)
	if allocs > 1300 {
		t.Fatalf("WriteStep allocates %.0f times per step, want <= 1300", allocs)
	}
}
