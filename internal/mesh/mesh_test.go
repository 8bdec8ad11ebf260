package mesh

import (
	"math"
	"reflect"
	"strings"
	"testing"
)

func TestRectCounts(t *testing.T) {
	m := Rect(4, 3, 2.0, 1.5)
	if got, want := m.NumVerts(), 5*4; got != want {
		t.Errorf("NumVerts = %d, want %d", got, want)
	}
	if got, want := m.NumTris(), 2*4*3; got != want {
		t.Errorf("NumTris = %d, want %d", got, want)
	}
	if err := m.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
}

func TestRectAreaAndOrientation(t *testing.T) {
	m := Rect(7, 5, 3.0, 2.0)
	if area := m.TotalArea(); math.Abs(area-6.0) > 1e-12 {
		t.Errorf("TotalArea = %g, want 6", area)
	}
	for i, tr := range m.Tris {
		if m.SignedArea(tr) <= 0 {
			t.Fatalf("triangle %d not CCW (signed area %g)", i, m.SignedArea(tr))
		}
	}
}

func TestDiskCountsAndArea(t *testing.T) {
	m := Disk(10, 32, 1.0)
	if err := m.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if got, want := m.NumVerts(), 1+10*32; got != want {
		t.Errorf("NumVerts = %d, want %d", got, want)
	}
	// Inscribed polygonal area approaches pi*r^2 from below.
	area := m.TotalArea()
	if area <= 3.0 || area >= math.Pi {
		t.Errorf("disk area %g not in (3, pi)", area)
	}
	for i, tr := range m.Tris {
		if m.SignedArea(tr) <= 0 {
			t.Fatalf("triangle %d not CCW", i)
		}
	}
}

func TestAnnulusCountsAndArea(t *testing.T) {
	m := Annulus(8, 48, 0.5, 1.0)
	if err := m.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	want := math.Pi * (1.0 - 0.25)
	area := m.TotalArea()
	if math.Abs(area-want)/want > 0.02 {
		t.Errorf("annulus area %g, want ~%g", area, want)
	}
}

func TestGeneratorPanics(t *testing.T) {
	cases := []func(){
		func() { Rect(0, 1, 1, 1) },
		func() { Disk(0, 8, 1) },
		func() { Disk(2, 2, 1) },
		func() { Annulus(1, 2, 0.5, 1) },
		func() { Annulus(1, 8, 1.0, 0.5) },
		func() { Annulus(1, 8, 0, 1) },
	}
	for i, f := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: generator did not panic", i)
				}
			}()
			f()
		}()
	}
}

func TestValidateCatchesOutOfRange(t *testing.T) {
	m := &Mesh{
		Verts: []Vertex{{0, 0}, {1, 0}, {0, 1}},
		Tris:  []Triangle{{0, 1, 3}},
	}
	if err := m.Validate(); err == nil {
		t.Fatal("Validate accepted out-of-range index")
	}
}

func TestValidateCatchesRepeatedVertex(t *testing.T) {
	m := &Mesh{
		Verts: []Vertex{{0, 0}, {1, 0}, {0, 1}},
		Tris:  []Triangle{{0, 1, 1}},
	}
	if err := m.Validate(); err == nil {
		t.Fatal("Validate accepted repeated vertex in triangle")
	}
}

func TestValidateCatchesDuplicateTriangle(t *testing.T) {
	m := &Mesh{
		Verts: []Vertex{{0, 0}, {1, 0}, {0, 1}},
		Tris:  []Triangle{{0, 1, 2}, {2, 0, 1}},
	}
	if err := m.Validate(); err == nil {
		t.Fatal("Validate accepted duplicate triangle (rotated winding)")
	}
}

func TestValidateCatchesIsolatedVertex(t *testing.T) {
	m := &Mesh{
		Verts: []Vertex{{0, 0}, {1, 0}, {0, 1}, {5, 5}},
		Tris:  []Triangle{{0, 1, 2}},
	}
	if err := m.Validate(); err == nil {
		t.Fatal("Validate accepted isolated vertex")
	}
}

func TestValidateCatchesNonFiniteCoordinate(t *testing.T) {
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for axis := 0; axis < 2; axis++ {
			m := Rect(4, 4, 1, 1)
			if axis == 0 {
				m.Verts[7].X = bad
			} else {
				m.Verts[7].Y = bad
			}
			err := m.Validate()
			if err == nil || !strings.Contains(err.Error(), "vertex 7 has a non-finite coordinate") {
				t.Errorf("coordinate %d = %g: Validate = %v", axis, bad, err)
			}
		}
	}
}

func TestEdges(t *testing.T) {
	m := Rect(1, 1, 1, 1) // 2 triangles, 5 unique edges
	edges := m.Edges()
	if len(edges) != 5 {
		t.Fatalf("Edges len = %d, want 5", len(edges))
	}
	for _, e := range edges {
		if e.A >= e.B {
			t.Fatalf("edge %v not canonical", e)
		}
	}
}

// TestEdgesOrderAndTableReuse checks Edges against the obvious map-based
// enumeration — order of first appearance is what decimation's edge handles,
// and so its tie-breaks, hang on — and that one EdgeTable rebuilt for meshes of
// different sizes answers like a fresh one each time.
func TestEdgesOrderAndTableReuse(t *testing.T) {
	var reused EdgeTable
	for _, m := range []*Mesh{Disk(5, 96, 1), Rect(7, 4, 1, 1), Annulus(6, 30, 0.5, 1), Rect(1, 1, 1, 1), {}} {
		var want []Edge
		count := map[Edge]int32{}
		for _, tri := range m.Tris {
			for k := 0; k < 3; k++ {
				e := MakeEdge(tri[k], tri[(k+1)%3])
				if count[e] == 0 {
					want = append(want, e)
				}
				count[e]++
			}
		}
		got := m.Edges()
		reused.Build(m)
		if len(got) != len(want) || len(reused.Edges) != len(want) || len(reused.Tris) != len(want) {
			t.Fatalf("%d verts: %d edges (%d reused), want %d", len(m.Verts), len(got), len(reused.Edges), len(want))
		}
		for i, e := range want {
			if got[i] != e || reused.Edges[i] != e {
				t.Fatalf("%d verts: edge %d = %v (%v reused), want %v", len(m.Verts), i, got[i], reused.Edges[i], e)
			}
			if reused.Tris[i] != count[e] {
				t.Fatalf("%d verts: edge %v in %d triangles, want %d", len(m.Verts), e, reused.Tris[i], count[e])
			}
		}
	}
}

func TestMakeEdgeCanonical(t *testing.T) {
	if e := MakeEdge(5, 2); e != (Edge{2, 5}) {
		t.Fatalf("MakeEdge(5,2) = %v", e)
	}
	if e := MakeEdge(2, 5); e != (Edge{2, 5}) {
		t.Fatalf("MakeEdge(2,5) = %v", e)
	}
}

func TestAdjacency(t *testing.T) {
	m := Rect(2, 2, 1, 1)
	adj := m.BuildAdjacency()
	// Every interior edge must belong to exactly 2 triangles, boundary to 1.
	var et EdgeTable
	et.Build(m)
	for i, e := range et.Edges {
		if et.Tris[i] < 1 || et.Tris[i] > 2 {
			t.Fatalf("edge %v in %d triangles", e, et.Tris[i])
		}
	}
	// Center vertex of a 2x2 grid is index 4 (row-major 3x3 lattice).
	center := int32(4)
	nbrs := adj.Neighbors(m, center)
	if len(nbrs) < 4 {
		t.Fatalf("center vertex has %d neighbors, want >= 4", len(nbrs))
	}
	for _, ti := range adj.VertTris[center] {
		found := false
		for _, v := range m.Tris[ti] {
			if v == center {
				found = true
			}
		}
		if !found {
			t.Fatalf("VertTris lists triangle %d not containing vertex %d", ti, center)
		}
	}
	// Rebuilt for a smaller and then a larger mesh, the same Adjacency
	// answers like a fresh one.
	for _, other := range []*Mesh{Rect(1, 1, 1, 1), Disk(4, 24, 1)} {
		adj.Build(other)
		if fresh := other.BuildAdjacency(); !reflect.DeepEqual(adj.VertTris, fresh.VertTris) {
			t.Fatalf("reused adjacency differs from a fresh one on %d vertices", other.NumVerts())
		}
	}
}

// boundaryVertices flags m's boundary vertices, the ends of an edge in one
// triangle, and counts them.
func boundaryVertices(m *Mesh) ([]bool, int) {
	var et EdgeTable
	et.Build(m)
	b := make([]bool, len(m.Verts))
	for i, e := range et.Edges {
		if et.Tris[i] == 1 {
			b[e.A], b[e.B] = true, true
		}
	}
	n := 0
	for _, on := range b {
		if on {
			n++
		}
	}
	return b, n
}

func TestBoundaryVertices(t *testing.T) {
	m := Rect(3, 3, 1, 1)
	b, n := boundaryVertices(m)
	// 4x4 lattice: 12 boundary vertices, 4 interior.
	if n != 12 {
		t.Fatalf("boundary count = %d, want 12", n)
	}
	// Interior vertex (1,1) of the lattice = index 5 must not be boundary.
	if b[5] {
		t.Fatal("interior vertex flagged as boundary")
	}
}

func TestDiskBoundaryIsOuterRing(t *testing.T) {
	m := Disk(4, 16, 2.0)
	b, n := boundaryVertices(m)
	if n != 16 {
		t.Fatalf("disk boundary count = %d, want 16", n)
	}
	for v, on := range b {
		if !on {
			continue
		}
		r := math.Hypot(m.Verts[v].X, m.Verts[v].Y)
		if math.Abs(r-2.0) > 1e-12 {
			t.Fatalf("boundary vertex %d at radius %g, want 2", v, r)
		}
	}
}

func TestBarycentricInterior(t *testing.T) {
	m := &Mesh{
		Verts: []Vertex{{0, 0}, {1, 0}, {0, 1}},
		Tris:  []Triangle{{0, 1, 2}},
	}
	u, v, w, ok := m.Barycentric(m.Tris[0], 0.25, 0.25)
	if !ok {
		t.Fatal("Barycentric degenerate on valid triangle")
	}
	if math.Abs(u-0.5) > 1e-12 || math.Abs(v-0.25) > 1e-12 || math.Abs(w-0.25) > 1e-12 {
		t.Fatalf("Barycentric = (%g,%g,%g), want (0.5,0.25,0.25)", u, v, w)
	}
}

func TestBarycentricDegenerate(t *testing.T) {
	m := &Mesh{
		Verts: []Vertex{{0, 0}, {1, 0}, {2, 0}},
		Tris:  []Triangle{{0, 1, 2}},
	}
	if _, _, _, ok := m.Barycentric(m.Tris[0], 0.5, 0); ok {
		t.Fatal("Barycentric accepted collinear triangle")
	}
}

func TestTriangleContains(t *testing.T) {
	m := &Mesh{
		Verts: []Vertex{{0, 0}, {1, 0}, {0, 1}},
		Tris:  []Triangle{{0, 1, 2}},
	}
	tr := m.Tris[0]
	if !m.TriangleContains(tr, 0.2, 0.2) {
		t.Error("interior point rejected")
	}
	if !m.TriangleContains(tr, 0, 0) {
		t.Error("corner rejected")
	}
	if !m.TriangleContains(tr, 0.5, 0.5) {
		t.Error("edge midpoint rejected")
	}
	if m.TriangleContains(tr, 0.7, 0.7) {
		t.Error("exterior point accepted")
	}
}

func TestClampBarycentric(t *testing.T) {
	u, v, w := ClampBarycentric(-0.1, 0.6, 0.5)
	if u != 0 {
		t.Errorf("u = %g, want 0", u)
	}
	if math.Abs(u+v+w-1) > 1e-12 {
		t.Errorf("sum = %g, want 1", u+v+w)
	}
	u, v, w = ClampBarycentric(-1, -1, -1)
	if math.Abs(u-1.0/3) > 1e-12 || math.Abs(v-1.0/3) > 1e-12 || math.Abs(w-1.0/3) > 1e-12 {
		t.Errorf("all-negative clamp = (%g,%g,%g), want thirds", u, v, w)
	}
}

func TestCloneIndependence(t *testing.T) {
	m := Rect(2, 2, 1, 1)
	c := m.Clone()
	c.Verts[0].X = 99
	c.Tris[0][0] = 3
	if m.Verts[0].X == 99 || m.Tris[0][0] == 3 {
		t.Fatal("Clone shares storage with original")
	}
}

func TestBoundsEmpty(t *testing.T) {
	var m Mesh
	x0, y0, x1, y1 := m.Bounds()
	if x0 != 0 || y0 != 0 || x1 != 0 || y1 != 0 {
		t.Fatalf("empty Bounds = (%g,%g,%g,%g), want zeros", x0, y0, x1, y1)
	}
}
