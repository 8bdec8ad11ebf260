package delta

import (
	"context"
	"math"
	"testing"

	"repro/internal/engine"
	"repro/internal/mesh"
)

// levelPair builds a (fine, coarse) pair with mapping and deltas for the
// parallel-path tests.
func levelPair(t *testing.T) (fine, coarse *mesh.Mesh, data, coarseData, deltas []float64, mp Mapping) {
	t.Helper()
	fine = mesh.Disk(24, 96, 1.0)
	data = field(fine, wave)
	coarse, coarseData = decimated(t, fine, data, 4)
	var err error
	if mp, err = Build(fine, coarse); err != nil {
		t.Fatal(err)
	}
	if deltas, err = ComputeInto(context.Background(), nil, fine, data, coarse, coarseData, mp, MeanEstimator{}, nil); err != nil {
		t.Fatal(err)
	}
	return
}

// TestParallelMatchesSerial pins the determinism contract of the sharded
// loops: ComputeInto and RestoreInto produce bit-identical results at every
// worker count, including the serial nil-pool path.
func TestParallelMatchesSerial(t *testing.T) {
	ctx := context.Background()
	fine, coarse, data, coarseData, deltas, mp := levelPair(t)
	for _, workers := range []int{1, 2, 5, 16} {
		pool := engine.NewPool(workers)
		d, err := ComputeInto(ctx, pool, fine, data, coarse, coarseData, mp, MeanEstimator{}, nil)
		if err != nil {
			t.Fatalf("workers=%d: ComputeInto: %v", workers, err)
		}
		r, err := RestoreInto(ctx, pool, fine, coarse, coarseData, mp, deltas, MeanEstimator{}, nil)
		if err != nil {
			t.Fatalf("workers=%d: RestoreInto: %v", workers, err)
		}
		serialR, err := RestoreInto(context.Background(), nil, fine, coarse, coarseData, mp, deltas, MeanEstimator{}, nil)
		if err != nil {
			t.Fatal(err)
		}
		for i := range deltas {
			if math.Float64bits(d[i]) != math.Float64bits(deltas[i]) {
				t.Fatalf("workers=%d: delta %d differs from serial compute", workers, i)
			}
			if math.Float64bits(r[i]) != math.Float64bits(serialR[i]) {
				t.Fatalf("workers=%d: restored %d differs from serial restore", workers, i)
			}
		}
	}
}

// TestRestoreIntoInPlace: dst aliasing deltas must restore correctly — the
// read path reuses the delta buffer to avoid a full-level allocation per
// augment step.
func TestRestoreIntoInPlace(t *testing.T) {
	ctx := context.Background()
	fine, coarse, _, coarseData, deltas, mp := levelPair(t)
	want, err := RestoreInto(context.Background(), nil, fine, coarse, coarseData, mp, deltas, MeanEstimator{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]float64, len(deltas))
	copy(buf, deltas)
	got, err := RestoreInto(ctx, engine.NewPool(4), fine, coarse, coarseData, mp, buf, MeanEstimator{}, buf)
	if err != nil {
		t.Fatal(err)
	}
	if &got[0] != &buf[0] {
		t.Fatal("in-place restore did not write into the provided buffer")
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("vertex %d: in-place restore %g, want %g", i, got[i], want[i])
		}
	}
}

// TestRestoreIntoAllocs guards the zero-allocation contract of the in-place
// restore the hot augment path relies on.
func TestRestoreIntoAllocs(t *testing.T) {
	ctx := context.Background()
	fine, coarse, _, coarseData, deltas, mp := levelPair(t)
	buf := make([]float64, len(deltas))
	allocs := testing.AllocsPerRun(20, func() {
		copy(buf, deltas)
		if _, err := RestoreInto(ctx, nil, fine, coarse, coarseData, mp, buf, MeanEstimator{}, buf); err != nil {
			t.Fatal(err)
		}
	})
	// The one allowed object is the sharding closure handed to RunRange;
	// nothing may scale with the vertex count.
	if allocs > 1 {
		t.Fatalf("serial in-place RestoreInto allocates %.0f objects, want <= 1", allocs)
	}
}
