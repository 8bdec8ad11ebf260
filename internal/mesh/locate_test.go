package mesh

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

func TestLocateInterior(t *testing.T) {
	m := Rect(10, 10, 1, 1)
	loc := NewLocator(m)
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 500; i++ {
		x, y := rng.Float64(), rng.Float64()
		ti, ok := loc.Locate(x, y)
		if !ok {
			t.Fatalf("point (%g,%g) not located", x, y)
		}
		if !m.TriangleContains(m.Tris[ti], x, y) {
			t.Fatalf("Locate returned triangle %d that does not contain (%g,%g)", ti, x, y)
		}
	}
}

func TestLocateOutside(t *testing.T) {
	m := Rect(4, 4, 1, 1)
	loc := NewLocator(m)
	if _, ok := loc.Locate(2, 2); ok {
		t.Fatal("Locate accepted point outside mesh")
	}
	if _, ok := loc.Locate(-0.5, 0.5); ok {
		t.Fatal("Locate accepted point left of mesh")
	}
}

func TestLocateVertices(t *testing.T) {
	// Every mesh vertex must be locatable (it lies on triangle corners).
	m := Disk(6, 24, 1.0)
	loc := NewLocator(m)
	for vi, v := range m.Verts {
		ti, ok := loc.Locate(v.X, v.Y)
		if !ok {
			t.Fatalf("vertex %d at (%g,%g) not located", vi, v.X, v.Y)
		}
		if !m.TriangleContains(m.Tris[ti], v.X, v.Y) {
			t.Fatalf("located triangle %d does not contain vertex %d", ti, vi)
		}
	}
}

func TestLocateDeterministic(t *testing.T) {
	m := Rect(6, 6, 1, 1)
	loc := NewLocator(m)
	// A lattice vertex shared by several triangles must always map to the
	// same (lowest) triangle id.
	v := m.Verts[8]
	first, ok := loc.Locate(v.X, v.Y)
	if !ok {
		t.Fatal("vertex not located")
	}
	for i := 0; i < 10; i++ {
		ti, _ := loc.Locate(v.X, v.Y)
		if ti != first {
			t.Fatalf("Locate not deterministic: %d then %d", first, ti)
		}
	}
}

func TestLocateNearestInside(t *testing.T) {
	m := Rect(5, 5, 1, 1)
	loc := NewLocator(m)
	ti := loc.LocateNearest(0.31, 0.47)
	if !m.TriangleContains(m.Tris[ti], 0.31, 0.47) {
		t.Fatal("LocateNearest inside point returned non-containing triangle")
	}
}

func TestLocateNearestOutside(t *testing.T) {
	m := Rect(5, 5, 1, 1)
	loc := NewLocator(m)
	// Point to the right of the mesh: nearest triangle must touch x=1.
	ti := loc.LocateNearest(1.4, 0.52)
	tr := m.Tris[ti]
	touches := false
	for _, v := range tr {
		if math.Abs(m.Verts[v].X-1) < 1e-12 {
			touches = true
		}
	}
	if !touches {
		t.Fatalf("LocateNearest(1.4,0.52) = triangle %d %v, does not touch right edge", ti, tr)
	}
}

func TestLocateNearestMatchesBruteForce(t *testing.T) {
	m := Disk(5, 20, 1.0)
	loc := NewLocator(m)
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 200; i++ {
		// Sample points inside and slightly outside the disk.
		r := 1.3 * math.Sqrt(rng.Float64())
		th := 2 * math.Pi * rng.Float64()
		x, y := r*math.Cos(th), r*math.Sin(th)
		got := loc.LocateNearest(x, y)
		gotD := m.pointTriangleDistSq(m.Tris[got], x, y)
		bestD := math.Inf(1)
		for ti := range m.Tris {
			d := m.pointTriangleDistSq(m.Tris[ti], x, y)
			if d < bestD {
				bestD = d
			}
		}
		if gotD-bestD > 1e-12 {
			t.Fatalf("LocateNearest(%g,%g) dist %g, brute-force best %g", x, y, math.Sqrt(gotD), math.Sqrt(bestD))
		}
	}
}

func TestLocatorEmptyMesh(t *testing.T) {
	loc := NewLocator(&Mesh{})
	if _, ok := loc.Locate(0, 0); ok {
		t.Fatal("Locate on empty mesh reported ok")
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	meshes := []*Mesh{
		Rect(3, 4, 2.5, 1.25),
		Disk(4, 12, 3.0),
		Annulus(3, 16, 1.0, 2.0),
		{}, // empty
	}
	for i, m := range meshes {
		data := Encode(m)
		got, n, err := Decode(data)
		if err != nil {
			t.Fatalf("mesh %d: Decode: %v", i, err)
		}
		if n != len(data) {
			t.Fatalf("mesh %d: consumed %d of %d bytes", i, n, len(data))
		}
		if len(got.Verts) != len(m.Verts) || len(got.Tris) != len(m.Tris) {
			t.Fatalf("mesh %d: size mismatch", i)
		}
		for j := range m.Verts {
			if got.Verts[j] != m.Verts[j] {
				t.Fatalf("mesh %d: vertex %d mismatch", i, j)
			}
		}
		for j := range m.Tris {
			if got.Tris[j] != m.Tris[j] {
				t.Fatalf("mesh %d: triangle %d mismatch", i, j)
			}
		}
	}
}

func TestDecodeErrors(t *testing.T) {
	m := Rect(2, 2, 1, 1)
	data := Encode(m)
	cases := map[string][]byte{
		"empty":       nil,
		"short magic": data[:3],
		"bad magic":   append([]byte{9, 9, 9, 9}, data[4:]...),
		"truncated":   data[:len(data)-4],
	}
	for name, d := range cases {
		if _, _, err := Decode(d); err == nil {
			t.Errorf("%s: Decode accepted corrupt data", name)
		}
	}
	// Bad version.
	bad := append([]byte(nil), data...)
	bad[4] = 0xFF
	if _, _, err := Decode(bad); err == nil {
		t.Error("Decode accepted bad version")
	}
}

func TestDecodeRejectsBadIndex(t *testing.T) {
	m := &Mesh{
		Verts: []Vertex{{0, 0}, {1, 0}, {0, 1}},
		Tris:  []Triangle{{0, 1, 2}},
	}
	data := Encode(m)
	// Corrupt the last connectivity varint region by appending a triangle
	// encoding that jumps far out of range. Simpler: flip the varint bytes.
	data[len(data)-1] = 0x7F // large positive delta -> out of range
	if _, _, err := Decode(data); err == nil {
		t.Fatal("Decode accepted out-of-range index")
	}
}

func BenchmarkLocate(b *testing.B) {
	m := Disk(60, 256, 1.0)
	loc := NewLocator(m)
	rng := rand.New(rand.NewSource(3))
	pts := make([][2]float64, 1024)
	for i := range pts {
		r := math.Sqrt(rng.Float64())
		th := 2 * math.Pi * rng.Float64()
		pts[i] = [2]float64{r * math.Cos(th), r * math.Sin(th)}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := pts[i%len(pts)]
		loc.Locate(p[0], p[1])
	}
}

func BenchmarkEncode(b *testing.B) {
	m := Disk(40, 128, 1.0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Encode(m)
	}
}

// TestLocatorCellsMatchReference: every grid cell lists the triangles whose
// bounding boxes overlap it, in ascending order, exactly as filing them one
// append at a time does.
func TestLocatorCellsMatchReference(t *testing.T) {
	for _, m := range []*Mesh{Rect(7, 5, 2, 1), Disk(6, 24, 1), jitter(Annulus(5, 30, 0.3, 1)), {}} {
		l := NewLocator(m)
		want := make([][]int32, l.nx*l.ny)
		for ti, tri := range m.Tris {
			x0, y0, x1, y1 := triBounds(m, tri)
			cx0, cy0 := l.cellOf(x0, y0)
			cx1, cy1 := l.cellOf(x1, y1)
			for cy := cy0; cy <= cy1; cy++ {
				for cx := cx0; cx <= cx1; cx++ {
					want[cy*l.nx+cx] = append(want[cy*l.nx+cx], int32(ti))
				}
			}
		}
		for c := range want {
			if got := l.cell(c); !slices.Equal(got, want[c]) {
				t.Fatalf("%d triangles: cell %d holds %v, want %v", len(m.Tris), c, got, want[c])
			}
		}
	}
}
