package core

import (
	"context"
	"fmt"

	"repro/internal/delta"
)

// ProlongToFinest pushes a view's field to the full-resolution mesh through
// the estimator chain with zero deltas — the reference operation the
// recorded error bounds are stated against (DESIGN.md §11): the best
// full-resolution reconstruction the view's accuracy level supports.
// Comparing the result against the original field measures the achieved
// error of a tolerance-driven retrieval, which must stay within the view's
// ErrorBound.
//
// Prolongation needs the vertex→triangle mappings of every level finer than
// the view, so it requires delta-mode hierarchies (direct-mode containers
// store no mappings). The mappings and meshes are metadata, cached by the
// reader; the input view is not modified.
func (r *Reader) ProlongToFinest(ctx context.Context, v *View) ([]float64, error) {
	if r.mode != ModeDelta {
		return nil, fmt.Errorf("canopus: prolongation requires delta mode, have %s", r.mode)
	}
	if v.Level < 0 || v.Level >= r.levels {
		return nil, fmt.Errorf("canopus: level %d out of range [0,%d)", v.Level, r.levels)
	}
	data, m := v.Data, v.Mesh
	for l := v.Level; l > 0; l-- {
		_, fine, err := r.open(ctx, 0, l-1)
		if err != nil {
			return nil, err
		}
		fineData := make([]float64, fine.mesh.NumVerts())
		coarseMesh, coarseData := m, data
		err = r.pool.RunRange(ctx, len(fineData), func(start, end int) error {
			for vi := start; vi < end; vi++ {
				fineData[vi] = delta.EstimateVertex(
					fine.mesh, coarseMesh, coarseData, fine.mapping, r.estimator, int32(vi))
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		data, m = fineData, fine.mesh
	}
	return data, nil
}
