package core

import (
	"context"
	"errors"
	"fmt"
	"math"

	"repro/internal/adios"
	"repro/internal/mesh"
	"repro/internal/obs"
)

// RegionView is a partially restored level: only the vertices inside the
// requested region (plus the coarse support they were restored from) carry
// valid data. It is the result of the paper's "focused data retrieval"
// workflow (§III-E): scan cheaply at low accuracy, then fetch a subset of
// the high-accuracy data for the interesting area.
type RegionView struct {
	// Level is the restored accuracy level.
	Level int
	// Mesh is the full G^Level geometry (geometry is metadata and is
	// cached by the reader; only delta payloads are fetched regionally).
	Mesh *mesh.Mesh
	// Data holds restored values at the indices with Have[i] == true and
	// 0 at every other index.
	Data []float64
	Have []bool
	// Timings accumulates the retrieval costs.
	Timings PhaseTimings
	// ErrorBound is the composed absolute error bound at the restored level
	// (restored vertices are bit-identical to a full Retrieve at the same
	// level, so the full retrieval's bound applies); -1 when the hierarchy
	// predates bound recording.
	ErrorBound float64
	// Degradation is non-nil when the view stopped short of the requested
	// accuracy under SetDegrade; Level then equals AchievedLevel.
	Degradation *Degradation
	// Cost is the request-scoped bill for the RetrieveRegion call that
	// produced this view (see View.Cost).
	Cost *obs.CostReport
}

// ErrBadRegion reports a region no retrieval can be run for: a coordinate
// that is NaN or infinite, or a box whose minimum exceeds its maximum.
var ErrBadRegion = errors.New("canopus: bad region")

// CountHave reports how many vertices carry valid data.
func (v *RegionView) CountHave() int {
	n := 0
	for _, ok := range v.Have {
		if ok {
			n++
		}
	}
	return n
}

// RetrieveRegion restores the axis-aligned region [minX,maxX]×[minY,maxY]
// of level targetLevel, fetching only the delta tiles the region needs.
//
// The restoration dependency chain runs coarse-to-fine: a fine vertex needs
// the three corner values of its coarse triangle, so the needed vertex set
// is propagated up to the base (which is read in full — it is small and
// lives on the fast tier), then the walk's refine step restores each level
// masked to its needed vertices. Restored values are bit-identical to what
// a full Retrieve produces for the same vertices.
//
// Regional retrieval requires delta-mode products (written with
// Options.Chunks > 1 to benefit; Chunks == 1 still works but reads the
// whole delta). The needed tiles of each level are fetched concurrently on
// the reader's pool; cancelling ctx aborts mid-fetch.
func (r *Reader) RetrieveRegion(ctx context.Context, targetLevel int, minX, minY, maxX, maxY float64) (*RegionView, error) {
	if targetLevel < 0 || targetLevel >= r.levels {
		return nil, fmt.Errorf("canopus: level %d out of range [0,%d)", targetLevel, r.levels)
	}
	for _, c := range [4]float64{minX, minY, maxX, maxY} {
		// NaN compares false with everything, so the emptiness test below
		// would let it through to select no vertex at full cost.
		if math.IsNaN(c) || math.IsInf(c, 0) {
			return nil, fmt.Errorf("%w: non-finite coordinate in [%g,%g]x[%g,%g]", ErrBadRegion, minX, maxX, minY, maxY)
		}
	}
	if minX > maxX || minY > maxY {
		return nil, fmt.Errorf("%w: empty [%g,%g]x[%g,%g]", ErrBadRegion, minX, maxX, minY, maxY)
	}
	if r.mode != ModeDelta {
		return nil, fmt.Errorf("canopus: regional retrieval requires delta mode, have %s", r.mode)
	}
	ctx, req, owned := obs.BeginRequest(ctx, "core.retrieve_region")
	ctx, span := obs.StartSpan(ctx, "core.retrieve_region")
	span.SetAttr("name", r.name)
	span.SetAttrInt("target_level", targetLevel)
	defer span.End()
	degrade := r.degradeOn()

	// The planner resolves the target into the coarse-to-fine step sequence;
	// the executor below only follows it (and truncates it on degradation).
	p, err := r.planner()
	if err != nil {
		return nil, err
	}
	pl, err := p.ForLevel(targetLevel)
	if err != nil {
		return nil, err
	}

	// Open the planned containers base-down with their geometry (cached
	// across calls): the masks need every planned level's geometry before
	// the base is read. The order matters for degradation: the base must
	// open (there is nothing coarser to fall back to), and a degradable
	// failure at a finer level truncates the active plan to the finest
	// level whose metadata is intact.
	base := r.levels - 1
	var degErr error
	active := pl.Steps
	handles := make([]*adios.Handle, base+1)
	geo := make([]*levelGeo, base+1)
	for i, st := range pl.Steps {
		h, g, err := r.open(ctx, 0, st.Level)
		if err != nil {
			if i > 0 && degrade && degradable(err) {
				degErr, active = err, pl.Steps[:i]
				break
			}
			return nil, err
		}
		handles[st.Level], geo[st.Level] = h, g
	}
	effTarget := active[len(active)-1].Level

	// Propagate the needed vertex set from the target region up to the
	// base: needed corners at level l+1 are the triangle corners the
	// mapping assigns to needed vertices at level l.
	needed := make([][]bool, base+1)
	needed[effTarget] = make([]bool, geo[effTarget].mesh.NumVerts())
	for vi, v := range geo[effTarget].mesh.Verts {
		if v.X >= minX && v.X <= maxX && v.Y >= minY && v.Y <= maxY {
			needed[effTarget][vi] = true
		}
	}
	for i := len(active) - 1; i > 0; i-- {
		l := active[i].Level
		coarseMesh := geo[l+1].mesh
		needed[l+1] = make([]bool, coarseMesh.NumVerts())
		for vi, want := range needed[l] {
			if !want {
				continue
			}
			for _, c := range coarseMesh.Tris[geo[l].mapping[vi]] {
				needed[l+1][c] = true
			}
		}
	}

	// The base is read in full (small, fast tier); each refine step then
	// restores only the needed vertices, fetching only the tiles that hold
	// them. A degradable refine failure stops the walk with the coarser
	// level's data intact.
	v, err := r.whole(ctx, handles[base], geo[base], base)
	if err != nil {
		return nil, err
	}
	for _, st := range active[1:] {
		if err := r.refine(ctx, 0, v, handles[st.Level], needed[st.Level]); err != nil {
			if !degrade || !degradable(err) {
				return nil, err
			}
			degErr = err
			break
		}
	}
	if degErr != nil {
		r.degradeAt(ctx, span, v, pl, degErr)
	}
	finishView(v, req, owned, span, metricRetrieveRegionSeconds)
	have := needed[v.Level]
	if v.Level == base {
		// The base is fully restored by construction.
		have = make([]bool, len(v.Data))
		for i := range have {
			have[i] = true
		}
	}
	return &RegionView{Level: v.Level, Mesh: v.Mesh, Data: v.Data, Have: have, Timings: v.Timings,
		ErrorBound: v.ErrorBound, Degradation: v.Degradation, Cost: v.Cost}, nil
}
