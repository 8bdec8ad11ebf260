// Package decimate implements Algorithm 1 of the Canopus paper: mesh
// decimation by iterative edge collapsing, driven by a priority queue of
// edge lengths. Collapsing the shortest edge first removes detail where the
// mesh is densest, producing a coarse level G^(l+1) whose vertex count is
// |V^l| / ratio.
//
// Each collapse removes edge (V_i, V_j), replaces both endpoints with a new
// vertex V_k = (V_i + V_j)/2, sets the new data value to the mean
// (NewData in the paper), reconnects the neighbors of V_i and V_j to V_k,
// and refreshes the priorities of the affected edges. The operation is
// purely local — no communication in a distributed setting — which is the
// paper's scalability argument (§II-C).
//
// The pass uses that locality the same way inside one process. A mesh of
// 8,192 vertices or more is cut by a grid over its bounding box into parts,
// their number set by the vertex count alone; the corners of triangles that
// span two parts are frozen, each part collapses its own vertices with its
// own queue, on the caller's worker pool (DecimateParallel), and a serial
// seam pass starting from the frozen vertices finishes the job. A smaller
// mesh is one part, which is exactly the serial collapse order. The result
// never depends on the pool's width.
//
// The coarse level comes out in its input's order: a coarse vertex is
// numbered by the least input vertex it stands for, and a coarse triangle
// keeps its input triangle's slot, so the tiles, geometry planes and codec
// streams of every level keep the input's locality.
package decimate

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"slices"

	"repro/internal/engine"
	"repro/internal/mesh"
	"repro/internal/pq"
)

// Priority computes the queue priority of an edge; smaller collapses first.
type Priority func(m *mesh.Mesh, a, b int32, data []float64) float64

// EdgeLength is the paper's default priority: Euclidean edge length.
func EdgeLength(m *mesh.Mesh, a, b int32, _ []float64) float64 {
	va, vb := m.Verts[a], m.Verts[b]
	return math.Hypot(va.X-vb.X, va.Y-vb.Y)
}

// DataWeighted scales edge length by the data jump across the edge, so
// edges crossing flat regions collapse first and edges inside features
// (blob flanks, shock fronts) survive longest. The paper notes "choosing
// the priority of an edge is application dependent and is left for future
// study" (§III-C1) and cites Kress et al. [13] for features being erased by
// naive reduction; this priority is the obvious feature-preserving
// candidate, quantified by the ablation bench.
func DataWeighted(m *mesh.Mesh, a, b int32, data []float64) float64 {
	l := EdgeLength(m, a, b, data)
	// The tiny geometric term breaks ties deterministically in constant
	// regions, where the data term vanishes.
	return l*math.Abs(data[a]-data[b]) + 1e-9*l
}

// HashOrder is an ablation priority that collapses edges in a pseudo-random
// but deterministic order, ignoring geometry. It exists to quantify how much
// the shortest-edge heuristic matters (DESIGN.md §5).
func HashOrder(_ *mesh.Mesh, a, b int32, _ []float64) float64 {
	h := uint64(a)*0x9e3779b97f4a7c15 ^ uint64(b)*0xbf58476d1ce4e5b9
	h ^= h >> 31
	h *= 0x94d049bb133111eb
	h ^= h >> 27
	return float64(h%(1<<52)) / (1 << 52)
}

// Options configures a decimation pass. The area guard every collapse
// passes (minAreaFrac of the mean input triangle area) is fixed, not an
// option.
type Options struct {
	// Priority orders collapses; nil means EdgeLength.
	Priority Priority
	// TrackRestriction records, for every coarse vertex, its value as a
	// weighted sum of *input* vertex values (Result.Restriction). With a
	// geometry-only priority the collapse sequence depends only on the
	// mesh, so the restriction lets a time-series writer re-derive the
	// coarse field of later timesteps without re-running decimation —
	// the static-mesh / evolving-field workflow of the paper's
	// applications.
	TrackRestriction bool
}

// Weight is one term of a restriction row: coarse value += W * fine[Vertex].
type Weight struct {
	Vertex int32
	W      float64
}

// Restriction maps a fine data array to the coarse one: row j lists the
// weighted input vertices that produce coarse value j.
type Restriction [][]Weight

// ApplyParallel computes the coarse data for a new field on the same input
// mesh. The coarse values land in dst's backing array when it has capacity
// (dst may be nil), so a time-series writer restricting every step
// allocates once. The per-row loop is sharded over pool (a nil pool runs
// serially); rows are independent (each writes only out[j] from its own
// weight list), so the result is bit-identical at every worker count.
func (r Restriction) ApplyParallel(ctx context.Context, pool *engine.Pool, fine, dst []float64) ([]float64, error) {
	out := dst
	if cap(out) >= len(r) {
		out = out[:len(r)]
	} else {
		out = make([]float64, len(r))
	}
	err := pool.RunRange(ctx, len(r), func(start, end int) error {
		r.applyRange(fine, out, start, end)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

func (r Restriction) applyRange(fine, out []float64, start, end int) {
	for j := start; j < end; j++ {
		var s float64
		for _, w := range r[j] {
			s += w.W * fine[w.Vertex]
		}
		out[j] = s
	}
}

// Result is the output of one decimation pass: level l+1 derived from
// level l.
type Result struct {
	// Coarse is G^(l+1).
	Coarse *mesh.Mesh
	// Data is L^(l+1), one value per coarse vertex.
	Data []float64
	// Restriction maps input data to coarse data; nil unless
	// Options.TrackRestriction was set. Restriction.ApplyParallel on the
	// input field reproduces Data up to floating-point association order.
	Restriction Restriction
	// Collapses is the number of edge collapses performed.
	Collapses int
	// Rejected counts collapses skipped by the link-condition or
	// triangle-quality guards.
	Rejected int
	// AchievedRatio is |V^l| / |V^(l+1)|.
	AchievedRatio float64
}

// Decimate reduces m to at most targetVerts vertices. data holds one value
// per vertex of m. It returns the coarse mesh, the decimated data, and
// collapse statistics. Decimation is deterministic for identical inputs.
// It is DecimateParallel without a pool: every part runs on the calling
// goroutine, and the result is the same bit for bit.
//
// The pass is best-effort: if every remaining edge fails the topological or
// quality guards before the target is reached, it returns what it achieved
// (check Result.AchievedRatio). It returns an error only for invalid
// arguments.
func Decimate(m *mesh.Mesh, data []float64, targetVerts int, opts Options) (*Result, error) {
	return DecimateParallel(context.Background(), nil, m, data, targetVerts, opts)
}

// DecimateParallel is Decimate with the mesh's parts collapsed on pool (a nil
// pool runs them one after another). The parts and their quotas depend only
// on the vertex count, so the result is bit-identical at every pool width.
// With more than one worker the priority is called from several goroutines
// at once and must be safe for that; the package's priorities are pure.
// Cancelling ctx stops the pass between parts, inside a part and in the seam
// pass, and returns ctx.Err().
func DecimateParallel(ctx context.Context, pool *engine.Pool, m *mesh.Mesh, data []float64, targetVerts int, opts Options) (*Result, error) {
	cols, rows := grid(len(m.Verts))
	return decimate(ctx, pool, m, data, targetVerts, opts, cols, rows)
}

// decimate is DecimateParallel on a cols x rows grid of parts.
func decimate(ctx context.Context, pool *engine.Pool, m *mesh.Mesh, data []float64, targetVerts int, opts Options, cols, rows int) (*Result, error) {
	if len(data) != len(m.Verts) {
		return nil, fmt.Errorf("decimate: data length %d != vertex count %d", len(data), len(m.Verts))
	}
	if targetVerts < 3 {
		return nil, fmt.Errorf("decimate: target %d vertices too small (need >= 3)", targetVerts)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if targetVerts >= len(m.Verts) {
		// Nothing to do; return a copy at ratio 1.
		res := &Result{
			Coarse:        m.Clone(),
			Data:          append([]float64(nil), data...),
			AchievedRatio: 1,
		}
		if opts.TrackRestriction {
			res.Restriction = make(Restriction, len(m.Verts))
			for i := range res.Restriction {
				res.Restriction[i] = []Weight{{Vertex: int32(i), W: 1}}
			}
		}
		return res, nil
	}
	prio := opts.Priority
	if prio == nil {
		prio = EdgeLength
	}

	w := getWork()
	defer putWork(w)
	w.init(m, data, targetVerts, prio, opts.TrackRestriction, minArea(m), cols, rows)
	if err := w.runParts(ctx, pool); err != nil {
		return nil, err
	}
	if err := w.seamPass(ctx, targetVerts); err != nil {
		return nil, err
	}

	res := &Result{}
	for i := range w.parts {
		res.Collapses += w.parts[i].collapses
		res.Rejected += w.parts[i].rejected
	}
	res.Coarse, res.Data, res.Restriction = w.compact(len(m.Verts) - res.Collapses)
	res.AchievedRatio = float64(len(m.Verts)) / float64(len(res.Coarse.Verts))
	return res, nil
}

// TargetForRatio converts a decimation ratio d into a vertex-count target
// for a mesh with n vertices, matching the paper's d^l = |V^0| / |V^l|.
func TargetForRatio(n int, ratio float64) int {
	if ratio <= 1 {
		return n
	}
	t := int(math.Ceil(float64(n) / ratio))
	if t < 3 {
		t = 3
	}
	return t
}

// minAreaFrac is the collapse guard: no collapse may leave a triangle whose
// area falls below this fraction of the mean input triangle area, which
// keeps the point-location and estimation steps downstream clear of
// degenerate geometry.
const minAreaFrac = 1e-6

// minArea is the guard's absolute area on m.
func minArea(m *mesh.Mesh) float64 {
	if len(m.Tris) == 0 {
		return 0
	}
	return minAreaFrac * m.TotalArea() / float64(len(m.Tris))
}

// work is the mutable decimation state, all of it index-addressed slices.
// Vertices and triangles are never physically deleted during the pass —
// alive flags mark removals, each collapse fills one vertex slot, and
// compact() squeezes the survivors into a fresh mesh at the end.
//
// The pass runs in parts. A grid over the mesh's bounding box, sized by the
// vertex count alone (grid), puts every input vertex in one cell. A triangle
// whose corners lie in two or more cells is a seam triangle, and each of its
// corners is frozen. Each cell's part then runs Algorithm 1 unchanged —
// shortest edge first, the same guards, lazy deletion — on the edges between
// its movable (unfrozen) vertices, with its own queue, edge handles, arena,
// scratch and epoch, until it has made its quota of collapses. A serial seam
// pass (seamPass) then collapses what is left, starting from the edges at
// frozen vertices.
//
// The parts share the working arrays without a race. A movable vertex's
// triangles all lie in its own cell, or it would be frozen, so its neighbors
// are vertices of its cell too; a collapse merges two movable vertices of
// one part into a vertex of that part whose triangles are theirs, so by
// induction a part reads and writes only the slots of its own cell's
// vertices (movable, frozen and made), of the triangles wholly inside its
// cell, and of the vertex ids assigned to it in advance. Seam triangles are
// only read in this phase (a frozen vertex's incidence list holds some), and
// a frozen vertex is never collapsed, so its slots are only read, but for
// its boundary flag, which the part of its cell sets while seeding. The mark
// array is shared the same way: each part stamps only its own vertices,
// with its own epoch.
//
// The incidence lists (vertTris) of collapse-made vertices are carved from a
// part's arena with their capacity capped, so the arena can grow by append
// without disturbing lists carved earlier. A list does not outgrow the room
// it was carved with: a vertex's triangles only die or are re-pointed.
type work struct {
	verts     []mesh.Vertex
	data      []float64
	vertAlive []bool
	boundary  []bool // true for vertices on (or descended from) the input boundary
	tris      []mesh.Triangle
	triAlive  []bool
	vertTris  [][]int32 // incidence; may contain dead ids, filtered on read
	prio      Priority
	minArea   float64

	// mark[v] == p.epoch means v was already seen by part p's current
	// neighbors call; bumping the epoch clears every mark of the part.
	mark []uint32

	// cell[v] is input vertex v's grid cell and frozen[v] whether it is a
	// corner of a seam triangle. parts holds one state per cell and, last,
	// the seam pass's.
	cell   []int32
	frozen []bool
	parts  []part

	// anc[v] is the least input vertex whose value v's value draws on: an
	// input vertex's own id, the lesser of the two for a mean, the copied
	// endpoint's for a boundary snap. It is the first input vertex of v's
	// restriction row, and no two vertices alive at the end share one, so
	// compact() numbers the output by it with one bucket pass.
	anc []int32

	// merged, when restriction tracking is on, records how each
	// collapse-made vertex inputVerts+n got its value: the mean of the two
	// listed vertices, or a copy of the first when the second is -1.
	// compact() expands this forest into restriction rows. Ids a part was
	// assigned and did not use stay dead slots that no row reaches.
	track      bool
	inputVerts int
	merged     [][2]int32

	// Scratch.
	adjacency mesh.Adjacency
	remap     []int32
	byAnc     []int32
	stack     []Weight
}

// part is one part's collapse state, or the seam pass's.
//
// Edge handles are dense ints assigned in push order and never reused:
// edges[id] names the endpoints, and the queue breaks priority ties on the
// handle. Deletion is lazy: a collapse leaves its endpoints' edges queued,
// and the pop loop skips an edge with a dead endpoint.
type part struct {
	queue  pq.Queue
	edges  []mesh.Edge
	seeded int // edges seeded before the first collapse

	// The part makes its vertices at ids first, first+1, … up to its quota
	// of collapses; next is the id the next collapse takes.
	first, next int32
	quota       int
	movable     int     // input vertices of the cell that are not frozen
	tris        []int32 // triangles wholly inside the cell; none for the seam pass
	seam        bool    // the seam pass, which may collapse frozen vertices

	triArena []int32 // backs the vertTris of the part's collapse-made vertices
	ring     int     // arena entries budgeted for those rings
	epoch    uint32
	mview    mesh.Mesh // window over verts for the priority

	nbrI, nbrJ          []int32
	collapses, rejected int
}

// A part averages partVerts to 2*partVerts vertices; there are at most
// maxParts of them.
const (
	partVerts = 4096
	maxParts  = 64
)

// grid returns the columns and rows of the part grid for an n-vertex mesh:
// one part below 2*partVerts vertices, then twice the parts for every
// doubling of n, up to maxParts, with as many columns as rows or twice as
// many. One part is exactly the serial collapse order.
func grid(n int) (cols, rows int) {
	cols, rows = 1, 1
	for cols*rows < maxParts && n >= 2*partVerts*cols*rows {
		if cols == rows {
			cols *= 2
		} else {
			rows *= 2
		}
	}
	return cols, rows
}

// slot returns the cell, of n between lo and hi, that x falls in; a
// coordinate that is not a number falls in the first.
func slot(x, lo, hi float64, n int) int {
	if n == 1 || !(hi > lo) {
		return 0
	}
	return max(0, min(int((x-lo)/(hi-lo)*float64(n)), n-1))
}

// spare keeps the state of one finished pass for the next to reuse, so a
// warm pass allocates little beyond its result; nothing a pass returns aliases
// it. It is a one-slot free list rather than a sync.Pool because the rest of a
// write allocates enough between two hierarchy builds for the collector to
// empty a pool every time. The cost is that the process keeps the slices of
// one pass, every part's included, about 380 bytes per input vertex of the
// largest mesh it served; a pass that made several times the expected number
// of edges (hub vertices under an ablation priority) has arenas and heaps
// only it needed and is not kept.
var spare = make(chan *work, 1)

func getWork() *work {
	select {
	case w := <-spare:
		return w
	default:
		return new(work)
	}
}

func putWork(w *work) {
	w.prio = nil // the caller's closure is not ours to keep
	var made, ring int
	for i := range w.parts {
		p := &w.parts[i]
		p.mview.Verts = nil
		made += len(p.edges) - p.seeded
		ring += p.ring
	}
	if made > 4*ring {
		return
	}
	select {
	case spare <- w:
	default:
	}
}

// reuse returns s emptied, with room for n elements.
func reuse[T any](s []T, n int) []T { return slices.Grow(s[:0], n) }

// refill returns s with length n, every element set to v, and room for max.
func refill[T any](s []T, n, max int, v T) []T {
	s = reuse(s, max)[:n]
	for i := range s {
		s[i] = v
	}
	return s
}

// init loads the input mesh, cuts it into parts and hands each its
// triangles, quota and vertex ids.
func (w *work) init(m *mesh.Mesh, data []float64, targetVerts int, prio Priority, track bool, minArea float64, cols, rows int) {
	nv, nt := len(m.Verts), len(m.Tris)
	// Each collapse fills one vertex slot and, typically, a ring of six to
	// eight triangles and edges; the arenas grow if a pass needs more.
	collapses := nv - targetVerts
	final := nv + collapses

	w.prio, w.track, w.inputVerts, w.minArea = prio, track, nv, minArea
	w.verts = append(reuse(w.verts, final), m.Verts...)
	w.data = append(reuse(w.data, final), data...)
	w.vertAlive = refill(w.vertAlive, nv, final, true)
	w.tris = append(reuse(w.tris, nt), m.Tris...)
	w.triAlive = refill(w.triAlive, nt, nt, true)
	w.mark = refill(w.mark, nv, final, 0)
	w.anc = reuse(w.anc, final)[:nv]
	for v := range w.anc {
		w.anc[v] = int32(v)
	}
	if track {
		w.merged = reuse(w.merged, collapses)
	}

	// Incidence: vertTris[v] lists v's triangles in ascending order.
	w.adjacency.Build(m)
	w.vertTris = append(reuse(w.vertTris, final), w.adjacency.VertTris...)

	w.boundary = refill(w.boundary, nv, final, false)
	w.partition(m, collapses, cols, rows)
}

// partition assigns every input vertex its cell, freezes the corners of
// seam triangles, and gives each part its triangles, its quota — its
// movable vertices' share of the collapses — and a range of vertex ids to
// match. The seam pass is left the share of the frozen vertices.
func (w *work) partition(m *mesh.Mesh, collapses, cols, rows int) {
	nv := len(m.Verts)
	w.parts = slices.Grow(w.parts[:0], cols*rows+1)[:cols*rows+1]
	for i := range w.parts {
		p := &w.parts[i]
		p.edges, p.seeded, p.tris = p.edges[:0], 0, p.tris[:0]
		p.quota, p.movable, p.ring, p.epoch = 0, 0, 0, 0
		p.collapses, p.rejected = 0, 0
		p.seam = i == cols*rows
	}
	minX, minY, maxX, maxY := m.Bounds()
	w.cell = reuse(w.cell, nv)
	for _, v := range m.Verts {
		w.cell = append(w.cell, int32(slot(v.X, minX, maxX, cols)+cols*slot(v.Y, minY, maxY, rows)))
	}
	w.frozen = refill(w.frozen, nv, nv, false)
	for ti, t := range m.Tris {
		if c := w.cell[t[0]]; w.cell[t[1]] == c && w.cell[t[2]] == c {
			w.parts[c].tris = append(w.parts[c].tris, int32(ti))
			continue
		}
		w.frozen[t[0]], w.frozen[t[1]], w.frozen[t[2]] = true, true, true
		w.scan(int32(ti), nil)
	}
	for v, c := range w.cell {
		if !w.frozen[v] {
			w.parts[c].movable++
		}
	}
	next := int32(nv)
	for i := range w.parts[:cols*rows] {
		p := &w.parts[i]
		p.quota = int(int64(collapses) * int64(p.movable) / int64(nv))
		p.first, p.next = next, next
		p.ring = 8 * p.quota
		next += int32(p.quota)
	}
	w.grow(int(next) - nv)
}

// grow appends n vertex slots, dead until a collapse fills one.
func (w *work) grow(n int) {
	w.verts = append(w.verts, make([]mesh.Vertex, n)...)
	w.data = append(w.data, make([]float64, n)...)
	w.vertAlive = append(w.vertAlive, make([]bool, n)...)
	w.boundary = append(w.boundary, make([]bool, n)...)
	w.mark = append(w.mark, make([]uint32, n)...)
	w.anc = append(w.anc, make([]int32, n)...)
	w.vertTris = append(w.vertTris, make([][]int32, n)...)
	if w.track {
		w.merged = append(w.merged, make([][2]int32, n)...)
	}
}

// runParts runs every part, on pool when it has more than one worker.
func (w *work) runParts(ctx context.Context, pool *engine.Pool) error {
	parts := w.parts[:len(w.parts)-1]
	if pool == nil || pool.Workers() == 1 || len(parts) == 1 {
		for i := range parts {
			if err := ctx.Err(); err != nil {
				return err
			}
			if err := w.runPart(ctx, &parts[i]); err != nil {
				return err
			}
		}
		return nil
	}
	units := make([]engine.Unit, len(parts))
	for i := range parts {
		p := &parts[i]
		units[i] = func(ctx context.Context) error { return w.runPart(ctx, p) }
	}
	return pool.Run(ctx, units...)
}

// scan visits the edges of triangle ti of which it is the first triangle, in
// Mesh.Edges order: it flags both ends of an edge of one triangle as on the
// boundary, and appends an edge between two movable vertices to p's seeds.
// An edge between two movable vertices lies only in triangles of their one
// cell, so a part scanning its triangles in index order seeds its edges in
// Mesh.Edges order; the seam triangles are scanned by partition. The
// incidence lists must still be the input's, ascending and unfiltered.
func (w *work) scan(ti int32, p *part) {
	t := w.tris[ti]
	for k := 0; k < 3; k++ {
		a, b := t[k], t[(k+1)%3]
		// The least other triangle on the edge, from a's ascending list.
		other := int32(-1)
		for _, tj := range w.vertTris[a] {
			if tj != ti && triHas(w.tris[tj], b) {
				other = tj
				break
			}
		}
		if other >= 0 && other < ti {
			continue // not the edge's first triangle
		}
		if other < 0 {
			w.boundary[a], w.boundary[b] = true, true
		}
		if p != nil && !w.frozen[a] && !w.frozen[b] {
			p.edges = append(p.edges, mesh.MakeEdge(a, b))
		}
	}
}

// runPart scans p's triangles, seeds its queue with their edges and
// collapses its quota.
func (w *work) runPart(ctx context.Context, p *part) error {
	for _, ti := range p.tris {
		w.scan(ti, p)
	}
	p.seeded = len(p.edges)
	if p.quota == 0 {
		return nil
	}
	p.mview.Verts = w.verts
	p.queue.Reset(len(p.edges))
	for id, e := range p.edges {
		p.queue.Push(id, w.prio(&p.mview, e.A, e.B, w.data))
	}
	p.edges = slices.Grow(p.edges, p.ring)
	p.triArena = reuse(p.triArena, p.ring)
	return w.drain(ctx, p)
}

// seamPass collapses, on the calling goroutine, what the parts left to reach
// targetVerts: the seam's share and any shortfall of a part that ran out of
// collapsible edges. It seeds its queue with only the live edges at frozen
// vertices; the incidence lists are still exact, so nothing is rebuilt. If
// those run out first it offers every live edge once more.
func (w *work) seamPass(ctx context.Context, targetVerts int) error {
	cells, s := w.parts[:len(w.parts)-1], &w.parts[len(w.parts)-1]
	alive := w.inputVerts
	for i := range cells {
		alive -= cells[i].collapses
		s.epoch = max(s.epoch, cells[i].epoch) // above every mark in the array
	}
	if len(cells) == 1 || alive <= targetVerts {
		return nil // one part has already offered every edge
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	s.quota = alive - targetVerts
	s.first, s.next = int32(len(w.verts)), int32(len(w.verts))
	s.ring = 8 * s.quota
	w.grow(s.quota)
	s.mview.Verts = w.verts
	s.triArena = reuse(s.triArena, s.ring)
	s.queue.Reset(s.ring)
	for f, frozen := range w.frozen {
		if !frozen {
			continue
		}
		s.nbrI = w.neighbors(s, int32(f), s.nbrI)
		for _, u := range s.nbrI {
			if int(u) >= len(w.frozen) || !w.frozen[u] || int(u) > f { // an edge of two frozen vertices once
				w.push(s, mesh.MakeEdge(int32(f), u))
			}
		}
	}
	s.seeded = len(s.edges)
	if err := w.drain(ctx, s); err != nil || s.collapses == s.quota {
		return err
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	for v := range w.verts {
		if !w.vertAlive[v] {
			continue
		}
		s.nbrI = w.neighbors(s, int32(v), s.nbrI)
		for _, u := range s.nbrI {
			if int(u) > v {
				w.push(s, mesh.Edge{A: int32(v), B: u})
			}
		}
	}
	return w.drain(ctx, s)
}

// drain pops p's queue and collapses until p has made its quota or the queue
// is empty, observing ctx every few hundred pops.
func (w *work) drain(ctx context.Context, p *part) error {
	for pops := 1; p.collapses < p.quota; pops++ {
		if pops%256 == 0 {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		id, _, ok := p.queue.Pop()
		if !ok {
			return nil
		}
		e := p.edges[id]
		if !w.vertAlive[e.A] || !w.vertAlive[e.B] {
			continue // stale: an endpoint died in an earlier collapse
		}
		if !w.collapse(p, e) {
			p.rejected++
			continue
		}
		p.collapses++
	}
	return nil
}

// push queues edge e under p's next handle.
func (w *work) push(p *part, e mesh.Edge) {
	p.queue.Push(len(p.edges), w.prio(&p.mview, e.A, e.B, w.data))
	p.edges = append(p.edges, e)
}

// liveTris returns the alive triangle ids incident to v.
func (w *work) liveTris(v int32) []int32 {
	out := w.vertTris[v][:0]
	for _, ti := range w.vertTris[v] {
		if w.triAlive[ti] && triHas(w.tris[ti], v) {
			out = append(out, ti)
		}
	}
	w.vertTris[v] = out
	return out
}

func triHas(t mesh.Triangle, v int32) bool {
	return t[0] == v || t[1] == v || t[2] == v
}

// neighbors appends to dst[:0] the alive vertices adjacent to v, in order of
// first appearance over v's live triangles, stamping each with p's epoch.
func (w *work) neighbors(p *part, v int32, dst []int32) []int32 {
	p.epoch++
	dst = dst[:0]
	for _, ti := range w.liveTris(v) {
		for _, u := range w.tris[ti] {
			if u != v && w.mark[u] != p.epoch {
				w.mark[u] = p.epoch
				dst = append(dst, u)
			}
		}
	}
	return dst
}

// hasTwin reports whether an alive triangle other than ti has the vertex
// set of t, the re-pointed form of ti. A twin contains every vertex of t, so
// it is in the incidence list of each: made, the triangles re-pointed at the
// new vertex so far, or the list of either other vertex, whichever is shortest
// (made is short unless the new vertex is a hub, and then the others are).
func (w *work) hasTwin(ti int32, t mesh.Triangle, k int32, made []int32) bool {
	search := made
	for _, v := range t {
		if v != k && len(w.vertTris[v]) < len(search) {
			search = w.vertTris[v]
		}
	}
	for _, tj := range search {
		if u := w.tris[tj]; tj != ti && w.triAlive[tj] && triHas(u, t[0]) && triHas(u, t[1]) && triHas(u, t[2]) {
			return true
		}
	}
	return false
}

// collapse merges edge e into a new midpoint vertex, p's next. It returns
// false (and changes nothing) if the collapse fails the link condition or
// the minimum-area guard.
func (w *work) collapse(p *part, e mesh.Edge) bool {
	i, j := e.A, e.B
	// neighbors(j) runs for its marks and its filtering of j's triangles.
	p.nbrI = w.neighbors(p, i, p.nbrI)
	p.nbrJ = w.neighbors(p, j, p.nbrJ)
	trisI, trisJ := w.vertTris[i], w.vertTris[j] // live: neighbors just filtered them

	// Link condition: the common neighbors of i and j must be exactly
	// the apex vertices of the triangles sharing edge (i,j); otherwise
	// the collapse would pinch the surface (create a non-manifold fold).
	// The marks still carry j's neighbor set.
	var common int
	for _, v := range p.nbrI {
		if w.mark[v] == p.epoch {
			common++
		}
	}
	var edgeTris int // triangles on edge (i,j)
	for _, ti := range trisI {
		if triHas(w.tris[ti], j) {
			edgeTris++
		}
	}
	if edgeTris == 0 || common != edgeTris {
		return false
	}

	// Boundary handling (a robustness refinement over the paper's plain
	// midpoint rule): collapsing a chord between two boundary vertices
	// would cut across the domain, and moving a boundary vertex to an
	// interior midpoint shrinks the hull, pushing fine vertices outside
	// the coarse mesh. So chords are rejected, and a boundary+interior
	// collapse snaps the new vertex onto the boundary endpoint.
	bI, bJ := w.boundary[i], w.boundary[j]
	if bI && bJ && edgeTris != 1 {
		return false // interior chord between two boundary vertices
	}

	var kv mesh.Vertex
	var kd float64
	from := [2]int32{i, j} // where k's value comes from, for the restriction
	anc := min(w.anc[i], w.anc[j])
	switch {
	case bI && !bJ:
		kv, kd = w.verts[i], w.data[i]
		from, anc = [2]int32{i, -1}, w.anc[i]
	case bJ && !bI:
		kv, kd = w.verts[j], w.data[j]
		from, anc = [2]int32{j, -1}, w.anc[j]
	default:
		// Paper's rule: midpoint position, mean data.
		kv = mesh.Vertex{
			X: (w.verts[i].X + w.verts[j].X) / 2,
			Y: (w.verts[i].Y + w.verts[j].Y) / 2,
		}
		kd = (w.data[i] + w.data[j]) / 2
	}

	// Quality guard: every surviving triangle that gets re-pointed at k
	// must keep a usable area.
	if w.minArea > 0 {
		moved := func(v int32) mesh.Vertex { // v's position after the collapse
			if v == i || v == j {
				return kv
			}
			return w.verts[v]
		}
		for _, list := range [2][]int32{trisI, trisJ} {
			for _, ti := range list {
				t := w.tris[ti]
				if triHas(t, i) && triHas(t, j) {
					continue // dies with the collapse
				}
				a, b, c := moved(t[0]), moved(t[1]), moved(t[2])
				area := math.Abs(0.5 * ((b.X-a.X)*(c.Y-a.Y) - (c.X-a.X)*(b.Y-a.Y)))
				if area < w.minArea {
					return false
				}
			}
		}
	}

	// Commit. The queued edges of i and j go stale and are skipped on pop.
	k := p.next
	p.next++
	w.verts[k], w.data[k], w.anc[k] = kv, kd, anc
	w.vertAlive[k] = true
	w.boundary[k] = bI || bJ
	if w.track {
		w.merged[int(k)-w.inputVerts] = from
	}
	w.vertAlive[i] = false
	w.vertAlive[j] = false

	// Retire triangles on the collapsed edge; re-point the rest, i's
	// survivors before j's. Two triangles that become the same triangle
	// merge into one: the later copy dies.
	for _, ti := range trisI {
		if triHas(w.tris[ti], j) {
			w.triAlive[ti] = false
		}
	}
	first := len(p.triArena)
	for _, list := range [2][]int32{trisI, trisJ} {
		for _, ti := range list {
			if !w.triAlive[ti] {
				continue
			}
			t := w.tris[ti]
			for c := 0; c < 3; c++ {
				if t[c] == i || t[c] == j {
					t[c] = k
				}
			}
			if w.hasTwin(ti, t, k, p.triArena[first:]) {
				w.triAlive[ti] = false
				continue
			}
			w.tris[ti] = t
			p.triArena = append(p.triArena, ti)
		}
	}
	w.vertTris[k] = p.triArena[first:len(p.triArena):len(p.triArena)]
	held := len(p.tris) // triangles the part's lists can hold
	if p.seam {
		held = len(w.tris)
	}
	if limit := 3*held + p.ring; len(p.triArena) > 2*limit {
		p.triArena = w.repack(p, limit)
	}

	// Queue the edges of the new vertex, in neighbor order. In a part, an
	// edge to a frozen vertex is the seam pass's.
	p.nbrI = w.neighbors(p, k, p.nbrI)
	for _, v := range p.nbrI {
		if p.seam || int(v) >= len(w.frozen) || !w.frozen[v] {
			w.push(p, mesh.MakeEdge(k, v))
		}
	}
	return true
}

// repack moves the lists of p's alive vertices into a fresh arena of the
// given capacity, which it returns, and drops the lists of its dead ones.
// Rings are usually six to eight entries and the arena never fills; under a
// priority that grows hub vertices each collapse of a hub leaves a ring of
// hundreds behind, and without this the arena would grow with the number of
// triangles ever re-pointed instead of the number alive.
func (w *work) repack(p *part, capacity int) []int32 {
	arena := make([]int32, 0, capacity)
	for v := p.first; v < p.next; v++ {
		if !w.vertAlive[v] {
			w.vertTris[v] = nil
			continue
		}
		first := len(arena)
		arena = append(arena, w.vertTris[v]...)
		w.vertTris[v] = arena[first:len(arena):len(arena)]
	}
	return arena
}

// compact squeezes alive vertices and triangles into a fresh mesh in their
// input's order. Vertices are numbered by ascending anc, their least input
// vertex, so each coarse vertex sits where the first of the input vertices
// it stands for sat. Triangles keep their input slots: collapses re-point a
// triangle in place, so the survivors are written, re-pointed through remap,
// in slot order. The order is a function of the surviving vertices and
// triangles alone, not of the working ids the parts and the seam pass made
// them under. Vertices orphaned by duplicate-triangle merges (alive but
// referenced by no surviving triangle) are dropped: they carry no
// interpolatable geometry.
func (w *work) compact(alive int) (*mesh.Mesh, []float64, Restriction) {
	// remap[v] is v's index in the output; until the vertex loop assigns
	// indices, 0 marks a vertex a surviving triangle references.
	remap := refill(w.remap, len(w.verts), len(w.verts), -1)
	w.remap = remap
	ntris := 0
	for ti, t := range w.tris {
		if w.triAlive[ti] {
			ntris++
			remap[t[0]], remap[t[1]], remap[t[2]] = 0, 0, 0
		}
	}
	// byAnc[a] is the kept vertex whose anc is a, or -1. Kept vertices'
	// ancs are distinct: every input vertex feeds at most one of them.
	byAnc := refill(w.byAnc, w.inputVerts, w.inputVerts, -1)
	w.byAnc = byAnc
	for v, a := range w.anc {
		if w.vertAlive[v] && remap[v] == 0 {
			byAnc[a] = int32(v)
		}
	}
	out := &mesh.Mesh{Verts: make([]mesh.Vertex, 0, alive), Tris: make([]mesh.Triangle, 0, ntris)}
	data := make([]float64, 0, alive)
	var restriction Restriction
	var rows []Weight
	if w.track {
		restriction = make(Restriction, 0, alive)
		rows = make([]Weight, 0, w.inputVerts) // an input vertex feeds at most one row
	}
	for _, v := range byAnc {
		if v < 0 {
			continue
		}
		remap[v] = int32(len(out.Verts))
		out.Verts = append(out.Verts, w.verts[v])
		data = append(data, w.data[v])
		if w.track {
			first := len(rows)
			rows = w.appendRow(rows, v)
			restriction = append(restriction, rows[first:len(rows):len(rows)])
		}
	}
	for ti, t := range w.tris {
		if w.triAlive[ti] {
			out.Tris = append(out.Tris, mesh.Triangle{remap[t[0]], remap[t[1]], remap[t[2]]})
		}
	}
	return out, data, restriction
}

// appendRow appends to rows the restriction row of vertex v, sorted by input
// vertex: it walks the merge forest down from v, halving the weight at every
// mean and passing it through at every copy, so an input vertex's weight is
// 2^-(means above it) exactly as if it had been halved collapse by collapse.
func (w *work) appendRow(rows []Weight, v int32) []Weight {
	first := len(rows)
	stack := append(w.stack[:0], Weight{Vertex: v, W: 1})
	for len(stack) > 0 {
		top := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if int(top.Vertex) < w.inputVerts {
			rows = append(rows, top)
			continue
		}
		from := w.merged[int(top.Vertex)-w.inputVerts]
		if from[1] < 0 {
			stack = append(stack, Weight{Vertex: from[0], W: top.W})
		} else {
			stack = append(stack, Weight{Vertex: from[0], W: top.W / 2}, Weight{Vertex: from[1], W: top.W / 2})
		}
	}
	w.stack = stack
	slices.SortFunc(rows[first:], func(a, b Weight) int { return cmp.Compare(a.Vertex, b.Vertex) })
	return rows
}
