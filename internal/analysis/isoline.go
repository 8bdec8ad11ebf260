package analysis

import (
	"math"

	"repro/internal/mesh"
)

// Isoline extraction by marching triangles: the contour-plot primitive
// behind field visualizations like the paper's Fig. 4/7 panels, operating
// directly on the unstructured mesh (no rasterization). Each triangle whose
// vertex values straddle the iso value contributes one line segment with
// endpoints linearly interpolated along the crossed edges.

// Segment is one isoline piece in mesh coordinates.
type Segment struct {
	X1, Y1, X2, Y2 float64
}

// Length returns the segment length.
func (s Segment) Length() float64 { return math.Hypot(s.X2-s.X1, s.Y2-s.Y1) }

// Isolines extracts the iso-value contour of a vertex field as line
// segments. Vertices exactly at the iso value are nudged by a relative
// epsilon so every crossing is a clean two-edge intersection; output order
// follows triangle order, so results are deterministic.
func Isolines(m *mesh.Mesh, data []float64, iso float64) []Segment {
	if len(data) != m.NumVerts() {
		return nil
	}
	// Nudge scale: tiny compared to the field spread.
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, v := range data {
		lo = math.Min(lo, v)
		hi = math.Max(hi, v)
	}
	eps := (hi - lo) * 1e-12
	if eps == 0 {
		eps = 1e-300
	}
	side := func(v float64) bool {
		d := v - iso
		if d == 0 {
			d = eps
		}
		return d > 0
	}
	cross := func(a, b int32) (float64, float64) {
		va, vb := data[a], data[b]
		t := (iso - va) / (vb - va)
		if math.IsNaN(t) || math.IsInf(t, 0) {
			t = 0.5
		}
		t = math.Max(0, math.Min(1, t))
		pa, pb := m.Verts[a], m.Verts[b]
		return pa.X + t*(pb.X-pa.X), pa.Y + t*(pb.Y-pa.Y)
	}
	var out []Segment
	for _, tr := range m.Tris {
		s0, s1, s2 := side(data[tr[0]]), side(data[tr[1]]), side(data[tr[2]])
		if s0 == s1 && s1 == s2 {
			continue // triangle entirely on one side
		}
		// Exactly one vertex is on the minority side; the contour
		// crosses its two incident edges.
		var apex, u, v int32
		switch {
		case s0 != s1 && s0 != s2:
			apex, u, v = tr[0], tr[1], tr[2]
		case s1 != s0 && s1 != s2:
			apex, u, v = tr[1], tr[0], tr[2]
		default:
			apex, u, v = tr[2], tr[0], tr[1]
		}
		x1, y1 := cross(apex, u)
		x2, y2 := cross(apex, v)
		out = append(out, Segment{X1: x1, Y1: y1, X2: x2, Y2: y2})
	}
	return out
}

// IsolineLength sums the total contour length — a scalar summary whose
// stability across accuracy levels measures how well decimation preserves
// field topology.
func IsolineLength(segs []Segment) float64 {
	var s float64
	for _, sg := range segs {
		s += sg.Length()
	}
	return s
}
