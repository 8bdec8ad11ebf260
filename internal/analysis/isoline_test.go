package analysis

import (
	"math"
	"testing"

	"repro/internal/decimate"
	"repro/internal/mesh"
)

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
