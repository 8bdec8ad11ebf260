package decimate_test

import (
	"reflect"
	"sync"
	"testing"

	"repro/internal/decimate"
	"repro/internal/mesh"
	"repro/internal/sim"
)

// TestDecimateAllocs guards the flat layout: the map-based pass allocated
// 17.4 objects per input vertex; a pass may allocate at most 2, and a warm
// one — its working state reused from the previous pass — allocates only its
// result, a count that does not depend on the mesh size.
func TestDecimateAllocs(t *testing.T) {
	ds := sim.XGC1(sim.XGC1Config{}).Dataset // the 21,120-vertex plane
	target := decimate.TargetForRatio(ds.Mesh.NumVerts(), 2)
	for _, track := range []bool{false, true} {
		opts := decimate.Options{TrackRestriction: track}
		allocs := testing.AllocsPerRun(3, func() {
			if _, err := decimate.Decimate(ds.Mesh, ds.Data, target, opts); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > 64 { // far inside the 2-per-vertex budget: 42,240 here
			t.Errorf("track=%v: a warm pass made %.0f allocations (%.4f per input vertex), want only its result (<= 64)",
				track, allocs, allocs/float64(ds.Mesh.NumVerts()))
		}
	}
}

// TestDecimateReusedStateIsClean runs passes of different sizes and options
// back to back, so each inherits the previous one's working state, and from
// several goroutines at once; every result must equal the first, cold one.
func TestDecimateReusedStateIsClean(t *testing.T) {
	type input struct {
		m    *mesh.Mesh
		data []float64
		opts decimate.Options
	}
	field := func(m *mesh.Mesh) []float64 {
		out := make([]float64, m.NumVerts())
		for i, v := range m.Verts {
			out[i] = v.X*v.X - 2*v.Y
		}
		return out
	}
	var inputs []input
	for _, m := range []*mesh.Mesh{mesh.Disk(16, 48, 1), mesh.Rect(9, 9, 1, 1), mesh.Annulus(12, 60, 0.4, 1)} {
		inputs = append(inputs,
			input{m, field(m), decimate.Options{TrackRestriction: true}},
			input{m, field(m), decimate.Options{Priority: decimate.DataWeighted}})
	}
	run := func(in input) *decimate.Result {
		res, err := decimate.Decimate(in.m, in.data, decimate.TargetForRatio(in.m.NumVerts(), 4), in.opts)
		if err != nil {
			t.Error(err)
		}
		return res
	}
	want := make([]*decimate.Result, len(inputs))
	for i, in := range inputs {
		want[i] = run(in)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for n := 0; n < 2*len(inputs); n++ {
				i := (g + n*5) % len(inputs) // a different size order per goroutine
				if got := run(inputs[i]); !reflect.DeepEqual(got, want[i]) {
					t.Errorf("goroutine %d: input %d differs from its first result", g, i)
				}
			}
		}(g)
	}
	wg.Wait()
}
