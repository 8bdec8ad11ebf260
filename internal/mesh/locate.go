package mesh

import "math"

// Locator answers point-location queries ("which triangle contains p?")
// against a fixed mesh using a uniform grid over triangle bounding boxes.
//
// Restoration (Algorithm 3 in the paper) must find, for every vertex of the
// fine mesh, the coarse triangle it falls into. A brute-force scan is
// O(|V^l| * |T^(l+1)|); the paper stores the mapping in metadata precisely
// because recomputing it is expensive. The Locator is what computes that
// mapping once, during refactoring, in roughly O(|V^l|) expected time.
type Locator struct {
	m            *Mesh
	minX, minY   float64
	cellW, cellH float64
	nx, ny       int
	// Cell c holds the triangles cellTris[cellStart[c]:cellStart[c+1]], in
	// ascending order.
	cellStart []int32
	cellTris  []int32
}

// NewLocator builds a grid index sized so the average cell holds O(1)
// triangles.
func NewLocator(m *Mesh) *Locator {
	minX, minY, maxX, maxY := m.Bounds()
	n := len(m.Tris)
	if n == 0 {
		return &Locator{m: m, nx: 1, ny: 1, cellW: 1, cellH: 1, cellStart: make([]int32, 2)}
	}
	// Aim for ~1 triangle per cell: grid side ~ sqrt(n).
	side := int(math.Ceil(math.Sqrt(float64(n))))
	if side < 1 {
		side = 1
	}
	w := maxX - minX
	h := maxY - minY
	if w <= 0 {
		w = 1
	}
	if h <= 0 {
		h = 1
	}
	l := &Locator{
		m:     m,
		minX:  minX,
		minY:  minY,
		nx:    side,
		ny:    side,
		cellW: w / float64(side),
		cellH: h / float64(side),
	}
	// Count each cell's triangles into cellStart[c+1] and prefix-sum, so
	// cellStart[c] is where cell c begins; then fill in triangle order,
	// advancing cellStart[c] to where c ends, and shift it back one cell.
	l.cellStart = make([]int32, side*side+1)
	l.forCells(func(c int, _ int32) { l.cellStart[c+1]++ })
	for c := 1; c < len(l.cellStart); c++ {
		l.cellStart[c] += l.cellStart[c-1]
	}
	l.cellTris = make([]int32, l.cellStart[side*side])
	l.forCells(func(c int, ti int32) {
		l.cellTris[l.cellStart[c]] = ti
		l.cellStart[c]++
	})
	copy(l.cellStart[1:], l.cellStart)
	l.cellStart[0] = 0
	return l
}

// forCells calls fn for every grid cell each triangle's bounding box
// overlaps, triangle by triangle in index order.
func (l *Locator) forCells(fn func(c int, ti int32)) {
	for ti, t := range l.m.Tris {
		x0, y0, x1, y1 := triBounds(l.m, t)
		cx0, cy0 := l.cellOf(x0, y0)
		cx1, cy1 := l.cellOf(x1, y1)
		for cy := cy0; cy <= cy1; cy++ {
			for cx := cx0; cx <= cx1; cx++ {
				fn(cy*l.nx+cx, int32(ti))
			}
		}
	}
}

// cell returns the triangles filed under cell c.
func (l *Locator) cell(c int) []int32 { return l.cellTris[l.cellStart[c]:l.cellStart[c+1]] }

func triBounds(m *Mesh, t Triangle) (x0, y0, x1, y1 float64) {
	a, b, c := m.Verts[t[0]], m.Verts[t[1]], m.Verts[t[2]]
	x0 = math.Min(a.X, math.Min(b.X, c.X))
	y0 = math.Min(a.Y, math.Min(b.Y, c.Y))
	x1 = math.Max(a.X, math.Max(b.X, c.X))
	y1 = math.Max(a.Y, math.Max(b.Y, c.Y))
	return
}

func (l *Locator) cellOf(x, y float64) (cx, cy int) {
	cx = int((x - l.minX) / l.cellW)
	cy = int((y - l.minY) / l.cellH)
	if cx < 0 {
		cx = 0
	}
	if cx >= l.nx {
		cx = l.nx - 1
	}
	if cy < 0 {
		cy = 0
	}
	if cy >= l.ny {
		cy = l.ny - 1
	}
	return
}

// Locate returns the index of a triangle containing (x, y), or ok=false if
// no triangle contains the point. When several triangles contain the point
// (it lies on a shared edge or vertex), the lowest triangle index wins, which
// keeps the refactor-time mapping deterministic.
func (l *Locator) Locate(x, y float64) (tri int32, ok bool) {
	cx, cy := l.cellOf(x, y)
	best := int32(-1)
	for _, ti := range l.cell(cy*l.nx + cx) {
		if l.m.TriangleContains(l.m.Tris[ti], x, y) {
			if best == -1 || ti < best {
				best = ti
			}
		}
	}
	if best >= 0 {
		return best, true
	}
	return 0, false
}

// LocateNearest returns the triangle containing (x, y), or — if the point is
// outside every triangle — the triangle closest to it. It expands the grid
// search ring by ring, so points just outside the hull stay cheap. The mesh
// must be non-empty.
func (l *Locator) LocateNearest(x, y float64) int32 {
	if ti, ok := l.Locate(x, y); ok {
		return ti
	}
	cx, cy := l.cellOf(x, y)
	best := int32(-1)
	bestD := math.Inf(1)
	maxRing := l.nx
	if l.ny > maxRing {
		maxRing = l.ny
	}
	for ring := 0; ring <= maxRing; ring++ {
		found := false
		for cyi := cy - ring; cyi <= cy+ring; cyi++ {
			if cyi < 0 || cyi >= l.ny {
				continue
			}
			for cxi := cx - ring; cxi <= cx+ring; cxi++ {
				if cxi < 0 || cxi >= l.nx {
					continue
				}
				// Only the perimeter of the ring is new.
				if ring > 0 && cxi != cx-ring && cxi != cx+ring && cyi != cy-ring && cyi != cy+ring {
					continue
				}
				for _, ti := range l.cell(cyi*l.nx + cxi) {
					found = true
					d := l.m.pointTriangleDistSq(l.m.Tris[ti], x, y)
					if d < bestD || (d == bestD && ti < best) {
						bestD = d
						best = ti
					}
				}
			}
		}
		// Once a candidate is found, one extra ring guarantees
		// correctness (a nearer triangle can only live one ring out,
		// since cell size bounds the distance error).
		if found && ring > 0 {
			break
		}
	}
	if best == -1 {
		// Degenerate grid (all triangles missed the searched cells);
		// fall back to a full scan.
		for ti := range l.m.Tris {
			d := l.m.pointTriangleDistSq(l.m.Tris[ti], x, y)
			if d < bestD {
				bestD = d
				best = int32(ti)
			}
		}
	}
	return best
}
