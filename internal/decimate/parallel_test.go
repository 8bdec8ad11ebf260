package decimate_test

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"testing"

	"repro/internal/decimate"
	"repro/internal/delta"
	"repro/internal/engine"
	"repro/internal/mesh"
	"repro/internal/sim"
)

// levelStats halves m three times on a cols x rows grid (0 x 0: the grid the
// vertex count selects) and returns, per level, the rms of the mean
// estimator's deltas and the coarse triangle count.
func levelStats(t *testing.T, m *mesh.Mesh, data []float64, cols, rows int) (rms []float64, tris []int) {
	t.Helper()
	for l := 0; l < 3; l++ {
		target := decimate.TargetForRatio(m.NumVerts(), 2)
		var res *decimate.Result
		var err error
		if cols == 0 {
			res, err = decimate.Decimate(m, data, target, decimate.Options{})
		} else {
			res, err = decimate.DecimateGrid(context.Background(), nil, m, data, target, decimate.Options{}, cols, rows)
		}
		if err != nil {
			t.Fatal(err)
		}
		if err := res.Coarse.Validate(); err != nil {
			t.Fatalf("level %d: %v", l+1, err)
		}
		mp, err := delta.Build(m, res.Coarse)
		if err != nil {
			t.Fatal(err)
		}
		d, err := delta.ComputeInto(context.Background(), nil, m, data, res.Coarse, res.Data, mp, delta.MeanEstimator{}, nil)
		if err != nil {
			t.Fatal(err)
		}
		var ss float64
		for _, x := range d {
			ss += x * x
		}
		rms = append(rms, math.Sqrt(ss/float64(len(d))))
		tris = append(tris, res.Coarse.NumTris())
		m, data = res.Coarse, res.Data
	}
	return rms, tris
}

// annulusField is a field with features at several scales over the
// annulus the identity and quality tests share.
func annulusField(m *mesh.Mesh) []float64 {
	out := make([]float64, len(m.Verts))
	for i, v := range m.Verts {
		dx, dy := v.X-0.5, v.Y+0.2
		out[i] = math.Sin(7*v.X)*math.Cos(5*v.Y) + math.Exp(-(dx*dx+dy*dy)/0.02)
	}
	return out
}

// TestDecimateParallelIdentical: the parts of a pass do not depend on the
// pool, so nil, 1, 2 and 4-wide pools give identical results, restriction
// included, under the default priority and under one that grows hubs.
func TestDecimateParallelIdentical(t *testing.T) {
	for _, c := range []struct {
		name string
		m    *mesh.Mesh
		opts decimate.Options
	}{
		// 39,200 vertices: eight parts.
		{"edge-length", mesh.Annulus(48, 800, 0.3, 1), decimate.Options{TrackRestriction: true}},
		// 10,000 vertices: two parts, and the hubs make it slow.
		{"hash-order", mesh.Annulus(24, 400, 0.3, 1), decimate.Options{Priority: decimate.HashOrder, TrackRestriction: true}},
	} {
		t.Run(c.name, func(t *testing.T) {
			data := annulusField(c.m)
			target := decimate.TargetForRatio(c.m.NumVerts(), 2)
			want, err := decimate.DecimateParallel(context.Background(), nil, c.m, data, target, c.opts)
			if err != nil {
				t.Fatal(err)
			}
			if err := want.Coarse.Validate(); err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{1, 2, 4} {
				got, err := decimate.DecimateParallel(context.Background(), engine.NewPool(workers), c.m, data, target, c.opts)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("%d workers: result differs from the nil pool's", workers)
				}
			}
		})
	}
}

// TestPartsQuality: halving the annulus three times in parts stays close to
// the one-part (serial) collapse order: per level the mean estimator's rms
// delta within 5% and the triangle count within 2%, every level valid.
func TestPartsQuality(t *testing.T) {
	m := mesh.Annulus(48, 800, 0.3, 1)
	data := annulusField(m)
	rms1, tris1 := levelStats(t, m, data, 1, 1)
	rms, tris := levelStats(t, m, data, 0, 0)
	for l := range rms {
		if r := rms[l] / rms1[l]; math.Abs(r-1) > 0.05 {
			t.Errorf("level %d: rms delta %.4g in parts, %.4g in one part (%.3fx)", l+1, rms[l], rms1[l], r)
		}
		if r := float64(tris[l]) / float64(tris1[l]); math.Abs(r-1) > 0.02 {
			t.Errorf("level %d: %d triangles in parts, %d in one part", l+1, tris[l], tris1[l])
		}
	}
}

// BenchmarkDecimateChain times the three halvings of a single write's
// hierarchy on the 39,200-vertex annulus, at pool widths 1 and NumCPU.
func BenchmarkDecimateChain(b *testing.B) {
	ds := sim.XGC1(sim.XGC1Config{Rings: 48, Segments: 800}).Dataset
	for _, workers := range []int{1, engine.DefaultWorkers()} {
		pool := engine.NewPool(workers)
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				m, data := ds.Mesh, ds.Data
				for l := 0; l < 3; l++ {
					res, err := decimate.DecimateParallel(context.Background(), pool, m, data, decimate.TargetForRatio(m.NumVerts(), 2), decimate.Options{})
					if err != nil {
						b.Fatal(err)
					}
					m, data = res.Coarse, res.Data
				}
			}
		})
	}
}
