package decimate_test

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/decimate"
	"repro/internal/engine"
	"repro/internal/mesh"
)

// TestCoarseOrder: a decimated level's vertices are numbered in its input's
// order. Over three halvings, at every pool width, with restriction tracking
// on:
//   - coarse vertex j's least input vertex (the first of its restriction row)
//     rises strictly with j;
//   - every triangle keeps its input's orientation (every input triangle
//     here is counter-clockwise, so every coarse one must be);
//   - every restriction row is sorted by input vertex.
//
// Triangles are not sorted: each keeps its input slot and its corners'
// input order, which the goldens pin.
func TestCoarseOrder(t *testing.T) {
	for _, c := range []struct {
		name string
		m    *mesh.Mesh
	}{
		{"annulus-parts", mesh.Annulus(48, 800, 0.3, 1)}, // eight parts and a seam pass
		{"rect-one-part", mesh.Rect(40, 40, 1, 1)},
	} {
		for _, workers := range []int{0, 1, 2, 4} {
			var pool *engine.Pool
			if workers > 0 {
				pool = engine.NewPool(workers)
			}
			t.Run(fmt.Sprintf("%s/workers=%d", c.name, workers), func(t *testing.T) {
				m, data := c.m, annulusField(c.m)
				for i, tri := range m.Tris {
					if m.SignedArea(tri) <= 0 {
						t.Fatalf("input triangle %d is not counter-clockwise", i)
					}
				}
				for l := 1; l <= 3; l++ {
					res, err := decimate.DecimateParallel(context.Background(), pool, m, data,
						decimate.TargetForRatio(m.NumVerts(), 2), decimate.Options{TrackRestriction: true})
					if err != nil {
						t.Fatal(err)
					}
					checkOrder(t, l, res)
					m, data = res.Coarse, res.Data
				}
			})
		}
	}
}

func checkOrder(t *testing.T, level int, res *decimate.Result) {
	t.Helper()
	prev := int32(-1)
	for j, row := range res.Restriction {
		if len(row) == 0 {
			t.Fatalf("level %d: vertex %d has an empty restriction row", level, j)
		}
		if row[0].Vertex <= prev {
			t.Fatalf("level %d: vertex %d's least input vertex %d does not rise above %d", level, j, row[0].Vertex, prev)
		}
		prev = row[0].Vertex
		for k := 1; k < len(row); k++ {
			if row[k].Vertex <= row[k-1].Vertex {
				t.Fatalf("level %d: restriction row %d is not sorted by input vertex: %v", level, j, row)
			}
		}
	}
	coarse := res.Coarse
	for i, tri := range coarse.Tris {
		if coarse.SignedArea(tri) <= 0 {
			t.Fatalf("level %d: triangle %d %v lost its orientation", level, i, tri)
		}
	}
}
