// Package mesh implements the unstructured triangular mesh data model that
// Canopus refactors: 2D vertices, triangles over them, and scalar fields
// (one float64 per vertex). It provides adjacency queries, topology
// validation, geometric predicates, point location with a uniform-grid
// spatial index, synthetic mesh generators, and a compact binary encoding.
//
// Terminology follows the Canopus paper (§III-B): a mesh at level l is
// G^l(V^l, E^l); the field over it is L^l. This package represents a single
// level; the decimate and delta packages build the level hierarchy.
package mesh

import (
	"fmt"
	"math"
	"slices"
)

// Vertex is a 2D point. Canopus evaluates on planar slices of simulation
// domains (e.g. one poloidal plane of the XGC1 torus), so 2D is the native
// data model for every experiment in the paper.
type Vertex struct {
	X, Y float64
}

// Triangle holds three vertex indices. Orientation is counter-clockwise for
// all generator-produced meshes; Validate checks consistency.
type Triangle [3]int32

// Mesh is an unstructured triangular mesh. The zero value is an empty mesh.
//
// Mesh itself stores only geometry and connectivity; derived adjacency is
// built on demand by BuildAdjacency and cached by the caller, because
// decimation mutates its own working copy of the structures.
type Mesh struct {
	Verts []Vertex
	Tris  []Triangle
}

// Clone returns a deep copy of m.
func (m *Mesh) Clone() *Mesh {
	c := &Mesh{
		Verts: make([]Vertex, len(m.Verts)),
		Tris:  make([]Triangle, len(m.Tris)),
	}
	copy(c.Verts, m.Verts)
	copy(c.Tris, m.Tris)
	return c
}

// NumVerts reports |V|.
func (m *Mesh) NumVerts() int { return len(m.Verts) }

// NumTris reports the number of triangles.
func (m *Mesh) NumTris() int { return len(m.Tris) }

// Edge is an undirected vertex pair with A < B.
type Edge struct {
	A, B int32
}

// MakeEdge normalizes (a,b) into canonical order.
func MakeEdge(a, b int32) Edge {
	if a > b {
		a, b = b, a
	}
	return Edge{a, b}
}

// Edges returns the unique undirected edges of the mesh in order of first
// appearance: triangles in index order, and within a triangle the edges
// (t[0],t[1]), (t[1],t[2]), (t[2],t[0]). Decimation seeds its queue — and so
// assigns its edge handles — in this order.
func (m *Mesh) Edges() []Edge {
	var t EdgeTable
	t.Build(m)
	return t.Edges
}

// EdgeTable lists the unique undirected edges of a mesh and how many
// triangles contain each. Build may be called again, for the same or another
// mesh, and reuses the table's storage.
type EdgeTable struct {
	// Edges holds the unique edges in Mesh.Edges order.
	Edges []Edge
	// Tris[i] is the number of triangles containing Edges[i]: 1 on the
	// boundary and 2 in the interior of a manifold mesh.
	Tris []int32

	// Scratch. Edges are deduplicated without hashing: each is filed under
	// its smaller endpoint v in the bucket other[start[v]:start[v]+fill[v]],
	// sized by counting, which holds no more entries than v has neighbors.
	start, fill  []int32
	other, index []int32 // a bucket entry's larger endpoint and its position in Edges
}

// Build fills the table from m.
func (t *EdgeTable) Build(m *Mesh) {
	nv := len(m.Verts)
	t.start = append(t.start[:0], make([]int32, nv+1)...)
	t.fill = append(t.fill[:0], make([]int32, nv)...)
	t.other = slices.Grow(t.other[:0], 3*len(m.Tris))[:3*len(m.Tris)]
	t.index = slices.Grow(t.index[:0], 3*len(m.Tris))[:3*len(m.Tris)]
	t.Edges = slices.Grow(t.Edges[:0], len(m.Tris)*3/2+nv)
	t.Tris = slices.Grow(t.Tris[:0], cap(t.Edges))
	start, fill, other, index := t.start, t.fill, t.other, t.index
	for _, tri := range m.Tris {
		for k := 0; k < 3; k++ {
			start[MakeEdge(tri[k], tri[(k+1)%3]).A+1]++
		}
	}
	for v := 0; v < nv; v++ {
		start[v+1] += start[v]
	}
	for _, tri := range m.Tris {
		for k := 0; k < 3; k++ {
			e := MakeEdge(tri[k], tri[(k+1)%3])
			lo := start[e.A]
			hi := lo + fill[e.A]
			if p := slices.Index(other[lo:hi], e.B); p >= 0 {
				t.Tris[index[int(lo)+p]]++
				continue
			}
			other[hi], index[hi] = e.B, int32(len(t.Edges))
			fill[e.A]++
			t.Edges = append(t.Edges, e)
			t.Tris = append(t.Tris, 1)
		}
	}
}

// Adjacency holds derived connectivity for a mesh: which triangles touch
// each vertex. Build may be called again, for the same or another mesh, and
// reuses the adjacency's storage.
type Adjacency struct {
	// VertTris[v] lists the indices of triangles incident to vertex v, in
	// ascending order. The lists are carved from one backing array, each
	// with its capacity capped at its length.
	VertTris [][]int32

	arena, count []int32
}

// BuildAdjacency computes vertex-triangle incidence.
func (m *Mesh) BuildAdjacency() *Adjacency {
	a := &Adjacency{}
	a.Build(m)
	return a
}

// Build fills a from m.
func (a *Adjacency) Build(m *Mesh) {
	a.count = append(a.count[:0], make([]int32, len(m.Verts))...)
	for _, t := range m.Tris {
		for _, v := range t {
			a.count[v]++
		}
	}
	a.VertTris = slices.Grow(a.VertTris[:0], len(m.Verts))[:len(m.Verts)]
	a.arena = slices.Grow(a.arena[:0], 3*len(m.Tris))[:3*len(m.Tris)]
	arena := a.arena
	for v, c := range a.count {
		a.VertTris[v], arena = arena[:0:c], arena[c:]
	}
	for ti, t := range m.Tris {
		for _, v := range t {
			a.VertTris[v] = append(a.VertTris[v], int32(ti))
		}
	}
}

// Neighbors returns the vertex ids adjacent to v (connected by an edge), in
// order of first appearance across v's incident triangles.
func (a *Adjacency) Neighbors(m *Mesh, v int32) []int32 {
	var out []int32
	for _, ti := range a.VertTris[v] {
		for _, w := range m.Tris[ti] {
			if w != v && !slices.Contains(out, w) {
				out = append(out, w)
			}
		}
	}
	return out
}

// Validate checks structural invariants: finite vertex coordinates, vertex
// indices in range, no repeated vertex within a triangle, no exact-duplicate
// triangles, and no isolated vertices (every vertex referenced by at least
// one triangle). It returns the first non-finite vertex if there is one,
// and otherwise the first violation found, in triangle order.
func (m *Mesh) Validate() error {
	for v, p := range m.Verts {
		if math.IsNaN(p.X) || math.IsInf(p.X, 0) || math.IsNaN(p.Y) || math.IsInf(p.Y, 0) {
			return fmt.Errorf("mesh: vertex %d has a non-finite coordinate (%g, %g)", v, p.X, p.Y)
		}
	}
	n := int32(len(m.Verts))
	// The first triangle with a vertex out of range or repeated ends the
	// checks, unless a duplicate comes before it. Count the triangles before
	// it by their smallest vertex.
	var bad error
	valid := len(m.Tris)
	start := make([]int32, n+1)
	for ti, t := range m.Tris {
		for k := 0; k < 3; k++ {
			if t[k] < 0 || t[k] >= n {
				bad = fmt.Errorf("mesh: triangle %d vertex %d index %d out of range [0,%d)", ti, k, t[k], n)
				break
			}
		}
		if bad == nil && (t[0] == t[1] || t[1] == t[2] || t[0] == t[2]) {
			bad = fmt.Errorf("mesh: triangle %d has repeated vertex: %v", ti, t)
		}
		if bad != nil {
			valid = ti
			break
		}
		start[canonicalTri(t)[0]+1]++
	}
	for v := int32(0); v < n; v++ {
		start[v+1] += start[v]
	}
	// Duplicates are found without hashing: each triangle files its two
	// larger vertices in the bucket rest[start[v]:start[v]+fill[v]] of its
	// smallest, v, in triangle order, so the first duplicate met is the
	// earliest.
	fill := make([]int32, n)
	rest := make([][2]int32, start[n])
	used := make([]bool, n)
	for _, t := range m.Tris[:valid] {
		key := canonicalTri(t)
		lo := start[key[0]]
		hi := lo + fill[key[0]]
		if slices.Contains(rest[lo:hi], [2]int32{key[1], key[2]}) {
			return fmt.Errorf("mesh: duplicate triangle %v", t)
		}
		rest[hi] = [2]int32{key[1], key[2]}
		fill[key[0]]++
		used[t[0]], used[t[1]], used[t[2]] = true, true, true
	}
	if bad != nil {
		return bad
	}
	for v, ok := range used {
		if !ok {
			return fmt.Errorf("mesh: isolated vertex %d", v)
		}
	}
	return nil
}

// canonicalTri sorts a triangle's indices so duplicates are detected
// regardless of rotation or winding.
func canonicalTri(t Triangle) [3]int32 {
	a, b, c := t[0], t[1], t[2]
	if a > b {
		a, b = b, a
	}
	if b > c {
		b, c = c, b
	}
	if a > b {
		a, b = b, a
	}
	return [3]int32{a, b, c}
}

// Bounds returns the axis-aligned bounding box of the vertices. For an empty
// mesh it returns zeros.
func (m *Mesh) Bounds() (minX, minY, maxX, maxY float64) {
	if len(m.Verts) == 0 {
		return 0, 0, 0, 0
	}
	minX, minY = math.Inf(1), math.Inf(1)
	maxX, maxY = math.Inf(-1), math.Inf(-1)
	for _, v := range m.Verts {
		// The built-ins order NaN and signed zeros as math.Min and
		// math.Max do, at a third of the cost.
		minX, minY = min(minX, v.X), min(minY, v.Y)
		maxX, maxY = max(maxX, v.X), max(maxY, v.Y)
	}
	return minX, minY, maxX, maxY
}

// TotalArea sums the unsigned areas of all triangles.
func (m *Mesh) TotalArea() float64 {
	var sum float64
	for _, t := range m.Tris {
		sum += math.Abs(m.SignedArea(t))
	}
	return sum
}

// SignedArea returns the signed area of triangle t (positive for CCW).
func (m *Mesh) SignedArea(t Triangle) float64 {
	a, b, c := m.Verts[t[0]], m.Verts[t[1]], m.Verts[t[2]]
	return 0.5 * ((b.X-a.X)*(c.Y-a.Y) - (c.X-a.X)*(b.Y-a.Y))
}
