package analysis

import (
	"math"
	"testing"

	"repro/internal/decimate"
	"repro/internal/mesh"
)

// Isoline extraction by marching triangles, a test oracle: the contour
// length of a restored level measures how well decimation preserves field
// topology (TestIsolineStabilityUnderDecimation). It works directly on the
// unstructured mesh (no rasterization): each triangle whose vertex values
// straddle the iso value contributes one line segment with endpoints
// linearly interpolated along the crossed edges.

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

func TestIsolinesCircleContour(t *testing.T) {
	// f = x^2 + y^2 on a fine disk: the iso=r^2 contour is a circle of
	// radius r; its extracted length must approximate 2*pi*r.
	m := mesh.Disk(40, 160, 1.0)
	data := make([]float64, m.NumVerts())
	for i, v := range m.Verts {
		data[i] = v.X*v.X + v.Y*v.Y
	}
	for _, r := range []float64{0.3, 0.5, 0.8} {
		segs := Isolines(m, data, r*r)
		if len(segs) == 0 {
			t.Fatalf("r=%g: no segments", r)
		}
		got := IsolineLength(segs)
		want := 2 * math.Pi * r
		if math.Abs(got-want)/want > 0.02 {
			t.Fatalf("r=%g: contour length %g, want ~%g", r, got, want)
		}
		// Every segment endpoint must lie near the circle.
		for _, s := range segs {
			for _, p := range [][2]float64{{s.X1, s.Y1}, {s.X2, s.Y2}} {
				if math.Abs(math.Hypot(p[0], p[1])-r) > 0.03 {
					t.Fatalf("r=%g: endpoint at radius %g", r, math.Hypot(p[0], p[1]))
				}
			}
		}
	}
}

func TestIsolinesLinearFieldStraightLine(t *testing.T) {
	// f = x: the iso=0.5 contour of the unit square is the vertical line
	// x = 0.5 with total length 1.
	m := mesh.Rect(16, 16, 1, 1)
	data := make([]float64, m.NumVerts())
	for i, v := range m.Verts {
		data[i] = v.X
	}
	segs := Isolines(m, data, 0.5)
	got := IsolineLength(segs)
	if math.Abs(got-1) > 1e-9 {
		t.Fatalf("contour length %g, want 1", got)
	}
	for _, s := range segs {
		if math.Abs(s.X1-0.5) > 1e-9 || math.Abs(s.X2-0.5) > 1e-9 {
			t.Fatalf("segment off the x=0.5 line: %+v", s)
		}
	}
}

func TestIsolinesOutsideRange(t *testing.T) {
	m := mesh.Rect(4, 4, 1, 1)
	data := make([]float64, m.NumVerts())
	for i := range data {
		data[i] = 1
	}
	if segs := Isolines(m, data, 5); len(segs) != 0 {
		t.Fatalf("iso outside range produced %d segments", len(segs))
	}
	// Constant field exactly at iso: the epsilon nudge puts every vertex
	// on one side — no spurious contour.
	if segs := Isolines(m, data, 1); len(segs) != 0 {
		t.Fatalf("constant-at-iso field produced %d segments", len(segs))
	}
}

func TestIsolinesBadInput(t *testing.T) {
	m := mesh.Rect(4, 4, 1, 1)
	if segs := Isolines(m, make([]float64, 2), 0); segs != nil {
		t.Fatal("mismatched data accepted")
	}
}

func TestIsolineStabilityUnderDecimation(t *testing.T) {
	// The visualization-facing claim: contour length (field topology
	// summary) survives moderate decimation.
	m := mesh.Disk(30, 120, 1.0)
	data := make([]float64, m.NumVerts())
	for i, v := range m.Verts {
		data[i] = v.X*v.X + v.Y*v.Y
	}
	iso := 0.25
	full := IsolineLength(Isolines(m, data, iso))
	res, err := decimate.Decimate(m, data, decimate.TargetForRatio(m.NumVerts(), 4), decimate.Options{})
	if err != nil {
		t.Fatal(err)
	}
	coarse := IsolineLength(Isolines(res.Coarse, res.Data, iso))
	if math.Abs(coarse-full)/full > 0.1 {
		t.Fatalf("contour length drifted %g -> %g across 4x decimation", full, coarse)
	}
}

func TestSegmentLength(t *testing.T) {
	if l := (Segment{0, 0, 3, 4}).Length(); l != 5 {
		t.Fatalf("Length = %g", l)
	}
}
