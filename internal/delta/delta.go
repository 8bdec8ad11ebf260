// Package delta implements Algorithms 2 and 3 of the Canopus paper: delta
// calculation between adjacent accuracy levels and restoration of the finer
// level from the coarser one plus the stored delta.
//
// For each vertex V_x of the fine mesh G^l that falls into triangle
// <V_i, V_j, V_k> of the coarse mesh G^(l+1), the delta is
//
//	delta_x = L^l_x − Estimate(L^(l+1)_i, L^(l+1)_j, L^(l+1)_k)
//
// where Estimate is a normalized linear combination (Eq. 2–3). The paper
// fixes α = β = γ = 1/3 and leaves the optimal form for future study; this
// package provides that mean estimator plus a barycentric-weighted one for
// the ablation bench.
//
// Only the barycentric estimator needs geometry. The mean estimator reads
// the mapping, the coarse triangles' corner indices and the coarse values,
// never a vertex coordinate, so restoring a mean-estimated level is a
// corner gather: (L_i + L_j + L_k) / 3 per fine vertex. ComputeInto,
// RestoreInto and EstimateVertex take that path whenever the estimator is
// MeanEstimator, and the generic barycentric path otherwise.
//
// Because adjacent levels are highly correlated, the deltas are much
// smoother than the levels themselves — that smoothness is what makes the
// Canopus layout compress better than direct multi-level compression
// (Fig. 5), with the compressor acting on near-zero values.
package delta

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"repro/internal/engine"
	"repro/internal/mesh"
)

// Mapping records, for every vertex of a fine mesh, the index of the coarse
// triangle that contains it (or, for vertices the coarse hull no longer
// covers, the nearest coarse triangle). Canopus computes this once during
// refactoring and stores it in metadata so restoration avoids an O(n^2)
// point-location pass (§III-E2).
type Mapping []int32

// Build computes the fine-vertex → coarse-triangle mapping using a grid
// locator over the coarse mesh.
func Build(fine, coarse *mesh.Mesh) (Mapping, error) {
	if coarse.NumTris() == 0 {
		return nil, errors.New("delta: coarse mesh has no triangles")
	}
	loc := mesh.NewLocator(coarse)
	mp := make(Mapping, fine.NumVerts())
	for vi, v := range fine.Verts {
		mp[vi] = loc.LocateNearest(v.X, v.Y)
	}
	return mp, nil
}

// Validate checks that mp is usable with the given meshes.
func (mp Mapping) Validate(fine, coarse *mesh.Mesh) error {
	if len(mp) != fine.NumVerts() {
		return fmt.Errorf("delta: mapping length %d != fine vertex count %d", len(mp), fine.NumVerts())
	}
	n := int32(coarse.NumTris())
	for vi, ti := range mp {
		if ti < 0 || ti >= n {
			return fmt.Errorf("delta: mapping[%d] = %d out of range [0,%d)", vi, ti, n)
		}
	}
	return nil
}

// Estimator predicts a fine-vertex value from the three corner values of
// its coarse triangle and the vertex's (clamped) barycentric coordinates in
// that triangle.
type Estimator interface {
	// Name identifies the estimator in metadata so restore uses the same
	// one as refactor.
	Name() string
	Estimate(li, lj, lk, u, v, w float64) float64
}

// MeanEstimator is the paper's estimator: α = β = γ = 1/3.
type MeanEstimator struct{}

// Name implements Estimator.
func (MeanEstimator) Name() string { return "mean" }

// Estimate implements Estimator.
func (MeanEstimator) Estimate(li, lj, lk, _, _, _ float64) float64 {
	return (li + lj + lk) / 3
}

// BarycentricEstimator weights the corners by the vertex's barycentric
// coordinates — linear interpolation over the coarse triangle. It satisfies
// the paper's normalization constraint (α+β+γ = 1) pointwise and is the
// natural "optimal form" candidate the paper defers; the ablation bench
// quantifies the difference.
type BarycentricEstimator struct{}

// Name implements Estimator.
func (BarycentricEstimator) Name() string { return "barycentric" }

// Estimate implements Estimator.
func (BarycentricEstimator) Estimate(li, lj, lk, u, v, w float64) float64 {
	return u*li + v*lj + w*lk
}

// EstimatorByName returns the estimator registered under name.
func EstimatorByName(name string) (Estimator, error) {
	switch name {
	case "mean", "":
		return MeanEstimator{}, nil
	case "barycentric":
		return BarycentricEstimator{}, nil
	default:
		return nil, fmt.Errorf("delta: unknown estimator %q", name)
	}
}

// EstimateVertex computes the Estimate(·) prediction for one fine vertex.
// ComputeInto, RestoreInto, and the focused-retrieval path all reduce to the
// same two per-vertex functions, meanAt and estimateGeneric, which guarantees
// that restoration — full or regional — reproduces the exact estimates used
// during refactoring.
func EstimateVertex(fine, coarse *mesh.Mesh, coarseData []float64, mp Mapping, est Estimator, vi int32) float64 {
	if _, ok := est.(MeanEstimator); ok {
		return meanAt(coarse, coarseData, mp, vi)
	}
	return estimateGeneric(fine, coarse, coarseData, mp, est, vi)
}

// meanAt is MeanEstimator's prediction for fine vertex vi, gathered from
// the corners of its coarse triangle without computing the barycentric
// coordinates the mean ignores. The operands and their order are those of
// MeanEstimator.Estimate, so the result is bit-identical to the generic
// path's.
func meanAt(coarse *mesh.Mesh, coarseData []float64, mp Mapping, vi int32) float64 {
	t := coarse.Tris[mp[vi]]
	return (coarseData[t[0]] + coarseData[t[1]] + coarseData[t[2]]) / 3
}

// estimateGeneric predicts fine vertex vi through est from the corner values
// and the vertex's clamped barycentric coordinates in its coarse triangle.
func estimateGeneric(fine, coarse *mesh.Mesh, coarseData []float64, mp Mapping, est Estimator, vi int32) float64 {
	t := coarse.Tris[mp[vi]]
	li, lj, lk := coarseData[t[0]], coarseData[t[1]], coarseData[t[2]]
	p := fine.Verts[vi]
	u, v, w, ok := coarse.Barycentric(t, p.X, p.Y)
	if !ok {
		// Degenerate coarse triangle: fall back to the centroid
		// weights, which the mean estimator uses anyway.
		u, v, w = 1.0/3, 1.0/3, 1.0/3
	}
	u, v, w = mesh.ClampBarycentric(u, v, w)
	return est.Estimate(li, lj, lk, u, v, w)
}

// validateInputs is the shared precondition check for ComputeInto and
// RestoreInto.
func validateInputs(fine, coarse *mesh.Mesh, coarseData []float64, mp Mapping) error {
	if err := mp.Validate(fine, coarse); err != nil {
		return err
	}
	if len(coarseData) != coarse.NumVerts() {
		return fmt.Errorf("delta: coarse data length %d != coarse vertex count %d", len(coarseData), coarse.NumVerts())
	}
	return nil
}

// sizeOut returns dst resized to n values, reusing its backing array when it
// has room.
func sizeOut(dst []float64, n int) []float64 {
	if cap(dst) >= n {
		return dst[:n]
	}
	return make([]float64, n)
}

// ComputeInto is Algorithm 2: it returns delta^(l−(l+1)), one value per
// fine vertex, in dst's backing array when it has room (dst may be nil).
// ctx bounds the work: cancellation from a caller (a disconnected server
// request, a shut-down pipeline) stops the per-vertex loop early. The loop
// is sharded over pool (nil pool runs serially). dst may alias fineData for
// an in-place delta calculation: each index is read before it is written
// and shards are disjoint, so the result is bit-identical at every worker
// count.
func ComputeInto(ctx context.Context, pool *engine.Pool, fine *mesh.Mesh, fineData []float64, coarse *mesh.Mesh, coarseData []float64, mp Mapping, est Estimator, dst []float64) ([]float64, error) {
	if len(fineData) != fine.NumVerts() {
		return nil, fmt.Errorf("delta: fine data length %d != fine vertex count %d", len(fineData), fine.NumVerts())
	}
	if err := validateInputs(fine, coarse, coarseData, mp); err != nil {
		return nil, err
	}
	out := sizeOut(dst, len(fineData))
	_, mean := est.(MeanEstimator)
	err := pool.RunRange(ctx, len(out), func(start, end int) error {
		if mean {
			for vi := start; vi < end; vi++ {
				out[vi] = fineData[vi] - meanAt(coarse, coarseData, mp, int32(vi))
			}
			return nil
		}
		for vi := start; vi < end; vi++ {
			out[vi] = fineData[vi] - estimateGeneric(fine, coarse, coarseData, mp, est, int32(vi))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// RestoreInto is Algorithm 3: it reconstructs L^l from the coarse level and
// the delta. With deltas stored losslessly the result matches the original
// to within one floating-point rounding of the estimate ((a−e)+e is not
// always exactly a in IEEE-754); with an error-bounded codec the deviation
// adds the codec's bound. ctx bounds the work, as in ComputeInto. The
// result lands in dst's backing array when it has room (dst may be nil),
// and the per-vertex loop is sharded over pool (nil pool runs serially).
// dst may alias deltas, turning restoration
// in-place: the read of deltas[vi] happens before the write of out[vi] and
// shards cover disjoint index ranges, so results are bit-identical at every
// worker count. This is the hot half of the paper's read path — the restore
// phase of Base/Augment — and the in-place form lets the caller reuse the
// freshly decoded delta buffer as the output level.
func RestoreInto(ctx context.Context, pool *engine.Pool, fine *mesh.Mesh, coarse *mesh.Mesh, coarseData []float64, mp Mapping, deltas []float64, est Estimator, dst []float64) ([]float64, error) {
	if len(deltas) != fine.NumVerts() {
		return nil, fmt.Errorf("delta: delta length %d != fine vertex count %d", len(deltas), fine.NumVerts())
	}
	if err := validateInputs(fine, coarse, coarseData, mp); err != nil {
		return nil, err
	}
	out := sizeOut(dst, len(deltas))
	_, mean := est.(MeanEstimator)
	err := pool.RunRange(ctx, len(out), func(start, end int) error {
		if mean {
			for vi := start; vi < end; vi++ {
				out[vi] = deltas[vi] + meanAt(coarse, coarseData, mp, int32(vi))
			}
			return nil
		}
		for vi := start; vi < end; vi++ {
			out[vi] = deltas[vi] + estimateGeneric(fine, coarse, coarseData, mp, est, int32(vi))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// Encode serializes the mapping with delta-varint coding: consecutive fine
// vertices usually land in nearby coarse triangles, so the deltas stay
// small.
func (mp Mapping) Encode() []byte {
	out := make([]byte, 0, 2*len(mp)+8)
	out = binary.AppendUvarint(out, uint64(len(mp)))
	prev := int64(0)
	for _, ti := range mp {
		out = binary.AppendVarint(out, int64(ti)-prev)
		prev = int64(ti)
	}
	return out
}

// DecodeMapping reverses Encode, returning the mapping and bytes consumed.
func DecodeMapping(data []byte) (Mapping, int, error) {
	n, off := binary.Uvarint(data)
	if off <= 0 {
		return nil, 0, errors.New("delta: truncated mapping")
	}
	// Every entry takes at least one varint byte, so a count beyond the
	// remaining bytes is forged; reject it before allocating for it.
	if n > uint64(len(data)-off) {
		return nil, 0, fmt.Errorf("delta: mapping length %d exceeds its %d payload bytes", n, len(data)-off)
	}
	mp := make(Mapping, n)
	prev := int64(0)
	for i := range mp {
		d, k := binary.Varint(data[off:])
		if k <= 0 {
			return nil, 0, errors.New("delta: truncated mapping")
		}
		off += k
		// prev is within [0, MaxInt32] here, so an overflowing sum wraps
		// negative and is caught below rather than truncated into range.
		prev += d
		if prev < 0 || prev > math.MaxInt32 {
			return nil, 0, fmt.Errorf("delta: triangle index %d out of int32 range", prev)
		}
		mp[i] = int32(prev)
	}
	return mp, off, nil
}
