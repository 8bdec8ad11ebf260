package decimate

import (
	"context"

	"repro/internal/engine"
	"repro/internal/mesh"
)

// DecimateGrid is DecimateParallel on a cols x rows grid of parts instead of
// the one the vertex count selects; 1 x 1 is the serial collapse order.
func DecimateGrid(ctx context.Context, pool *engine.Pool, m *mesh.Mesh, data []float64, targetVerts int, opts Options, cols, rows int) (*Result, error) {
	return decimate(ctx, pool, m, data, targetVerts, opts, cols, rows)
}
