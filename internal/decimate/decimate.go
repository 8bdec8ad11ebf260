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

// Options configures a decimation pass.
type Options struct {
	// Priority orders collapses; nil means EdgeLength.
	Priority Priority
	// MinAreaFrac rejects collapses that would create a triangle whose
	// area falls below this fraction of the mean input triangle area.
	// Guards the point-location and estimation steps downstream against
	// degenerate geometry. Zero means the default (1e-6); negative
	// disables the guard.
	MinAreaFrac float64
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
//
// The pass is best-effort: if every remaining edge fails the topological or
// quality guards before the target is reached, it returns what it achieved
// (check Result.AchievedRatio). It returns an error only for invalid
// arguments.
func Decimate(m *mesh.Mesh, data []float64, targetVerts int, opts Options) (*Result, error) {
	if len(data) != len(m.Verts) {
		return nil, fmt.Errorf("decimate: data length %d != vertex count %d", len(data), len(m.Verts))
	}
	if targetVerts < 3 {
		return nil, fmt.Errorf("decimate: target %d vertices too small (need >= 3)", targetVerts)
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
	w.init(m, data, targetVerts, prio, opts.TrackRestriction)
	minArea := opts.minArea(m)

	res := &Result{}
	alive := len(m.Verts)
	for alive > targetVerts {
		id, _, ok := w.queue.Pop()
		if !ok {
			break
		}
		e := w.edges[id]
		if !w.vertAlive[e.A] || !w.vertAlive[e.B] {
			continue // stale: an endpoint died in an earlier collapse
		}
		if !w.collapse(e, minArea) {
			res.Rejected++
			continue
		}
		res.Collapses++
		alive--
	}

	res.Coarse, res.Data, res.Restriction = w.compact(alive)
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

func (o Options) minArea(m *mesh.Mesh) float64 {
	frac := o.MinAreaFrac
	if frac < 0 {
		return 0
	}
	if frac == 0 {
		frac = 1e-6
	}
	if len(m.Tris) == 0 {
		return 0
	}
	return frac * m.TotalArea() / float64(len(m.Tris))
}

// work is the mutable decimation state, all of it index-addressed slices.
// Vertices and triangles are never physically deleted during the pass —
// alive flags mark removals, each collapse appends one vertex, and compact()
// squeezes the survivors into a fresh mesh at the end.
//
// The incidence lists (vertTris) of collapse-made vertices are carved from a
// shared arena with their capacity capped, so the arena can grow by append
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
	triArena  []int32   // backs the vertTris of collapse-made vertices
	mview     mesh.Mesh // window over verts for geometry helpers
	prio      Priority
	ring      int // arena entries budgeted for the rings of collapse-made vertices

	// Edge handles are dense ints assigned in push order and never reused:
	// edges[id] names the endpoints, and the queue breaks priority ties on
	// the handle. Deletion is lazy: a collapse leaves its endpoints' edges
	// queued, and the pop loop skips an edge with a dead endpoint.
	queue pq.Queue
	edges []mesh.Edge

	// mark[v] == epoch means v was already seen by the current neighbors
	// call; bumping epoch clears every mark at once.
	mark  []uint32
	epoch uint32

	// merged, when restriction tracking is on, records how each
	// collapse-made vertex inputVerts+n got its value: the mean of the two
	// listed vertices, or a copy of the first when the second is -1.
	// compact() expands this forest into restriction rows.
	track      bool
	inputVerts int
	merged     [][2]int32

	// Scratch.
	adjacency  mesh.Adjacency
	table      mesh.EdgeTable
	nbrI, nbrJ []int32
	remap      []int32
	stack      []Weight
}

// spare keeps the state of one finished pass for the next to reuse, so a
// warm pass allocates little beyond its result; nothing a pass returns aliases
// it. It is a one-slot free list rather than a sync.Pool because the rest of a
// write allocates enough between two hierarchy builds for the collector to
// empty a pool every time. The cost is that the process keeps the slices of
// one pass, about 440 bytes per input vertex of the largest mesh it served; a
// pass that made several times the expected number of edges (hub vertices
// under an ablation priority) has an arena and a heap only it needed and is
// not kept.
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
	if len(w.edges)-len(w.table.Edges) > 4*w.ring {
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

// init loads the input mesh and seeds the queue with every edge.
func (w *work) init(m *mesh.Mesh, data []float64, targetVerts int, prio Priority, track bool) {
	nv, nt := len(m.Verts), len(m.Tris)
	// Each collapse appends one vertex and, typically, a ring of six to
	// eight triangles and edges; the arenas grow if a pass needs more.
	collapses := nv - targetVerts
	final := nv + collapses
	ring := 8 * collapses

	w.prio, w.track, w.inputVerts, w.ring = prio, track, nv, ring
	w.verts = append(reuse(w.verts, final), m.Verts...)
	w.data = append(reuse(w.data, final), data...)
	w.vertAlive = refill(w.vertAlive, nv, final, true)
	w.tris = append(reuse(w.tris, nt), m.Tris...)
	w.triAlive = refill(w.triAlive, nt, nt, true)
	w.mark = refill(w.mark, nv, final, 0)
	w.epoch = 0
	w.merged = w.merged[:0]

	// Incidence: vertTris[v] lists v's triangles in ascending order.
	w.adjacency.Build(m)
	w.vertTris = append(reuse(w.vertTris, final), w.adjacency.VertTris...)
	w.triArena = reuse(w.triArena, ring)

	// Edges: an input edge's handle is its position in m.Edges().
	w.table.Build(m)
	seed := w.table.Edges
	w.boundary = refill(w.boundary, nv, final, false)
	w.table.MarkBoundary(w.boundary)
	w.edges = append(reuse(w.edges, len(seed)+ring), seed...)
	w.queue.Reset(len(seed))
	for id, e := range seed {
		w.queue.Push(id, prio(w.asMesh(), e.A, e.B, w.data))
	}
}

// asMesh returns a mesh view over the current vertex array (triangles are
// not needed by the priority functions).
func (w *work) asMesh() *mesh.Mesh {
	w.mview.Verts = w.verts
	return &w.mview
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
// first appearance over v's live triangles.
func (w *work) neighbors(v int32, dst []int32) []int32 {
	w.epoch++
	dst = dst[:0]
	for _, ti := range w.liveTris(v) {
		for _, u := range w.tris[ti] {
			if u != v && w.mark[u] != w.epoch {
				w.mark[u] = w.epoch
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

// collapse merges edge e into a new midpoint vertex. It returns false (and
// changes nothing) if the collapse fails the link condition or the
// minimum-area guard.
func (w *work) collapse(e mesh.Edge, minArea float64) bool {
	i, j := e.A, e.B
	// neighbors(j) runs for its marks and its filtering of j's triangles.
	w.nbrI = w.neighbors(i, w.nbrI)
	w.nbrJ = w.neighbors(j, w.nbrJ)
	trisI, trisJ := w.vertTris[i], w.vertTris[j] // live: neighbors just filtered them

	// Link condition: the common neighbors of i and j must be exactly
	// the apex vertices of the triangles sharing edge (i,j); otherwise
	// the collapse would pinch the surface (create a non-manifold fold).
	// The marks still carry j's neighbor set.
	var common int
	for _, v := range w.nbrI {
		if w.mark[v] == w.epoch {
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

	k := int32(len(w.verts))
	var kv mesh.Vertex
	var kd float64
	from := [2]int32{i, j} // where k's value comes from, for the restriction
	switch {
	case bI && !bJ:
		kv, kd = w.verts[i], w.data[i]
		from = [2]int32{i, -1}
	case bJ && !bI:
		kv, kd = w.verts[j], w.data[j]
		from = [2]int32{j, -1}
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
	if minArea > 0 {
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
				if area < minArea {
					return false
				}
			}
		}
	}

	// Commit. The queued edges of i and j go stale and are skipped on pop.
	w.verts = append(w.verts, kv)
	w.data = append(w.data, kd)
	w.vertAlive = append(w.vertAlive, true)
	w.boundary = append(w.boundary, bI || bJ)
	w.mark = append(w.mark, 0)
	if w.track {
		w.merged = append(w.merged, from)
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
	first := len(w.triArena)
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
			if w.hasTwin(ti, t, k, w.triArena[first:]) {
				w.triAlive[ti] = false
				continue
			}
			w.tris[ti] = t
			w.triArena = append(w.triArena, ti)
		}
	}
	w.vertTris = append(w.vertTris, w.triArena[first:len(w.triArena):len(w.triArena)])
	if limit := 3*len(w.tris) + w.ring; len(w.triArena) > 2*limit {
		w.triArena = repack(w.vertTris, w.vertAlive, limit)
	}

	// Queue the edges of the new vertex, in neighbor order.
	w.nbrI = w.neighbors(k, w.nbrI)
	for _, v := range w.nbrI {
		w.queue.Push(len(w.edges), w.prio(w.asMesh(), v, k, w.data))
		w.edges = append(w.edges, mesh.MakeEdge(k, v))
	}
	return true
}

// repack moves the lists of alive vertices into a fresh arena of the given
// capacity, which it returns, and drops the lists of dead ones. Rings are
// usually six to eight entries and the arena never fills; under a priority
// that grows hub vertices each collapse of a hub leaves a ring of hundreds
// behind, and without this the arena would grow with the number of triangles
// ever re-pointed instead of the number alive.
func repack(lists [][]int32, alive []bool, capacity int) []int32 {
	arena := make([]int32, 0, capacity)
	for v, list := range lists {
		if !alive[v] {
			lists[v] = nil
			continue
		}
		first := len(arena)
		arena = append(arena, list...)
		lists[v] = arena[first:len(arena):len(arena)]
	}
	return arena
}

// compact squeezes alive vertices and triangles into a fresh mesh, remapping
// indices. Vertices keep their relative order, so output is deterministic.
// Vertices orphaned by duplicate-triangle merges (alive but referenced by no
// surviving triangle) are dropped: they carry no interpolatable geometry.
func (w *work) compact(alive int) (*mesh.Mesh, []float64, Restriction) {
	// remap[v] is v's index in the output, or -1 if v is dropped; until the
	// vertex loop assigns indices, 0 marks a referenced vertex.
	remap := refill(w.remap, len(w.verts), len(w.verts), -1)
	w.remap = remap
	ntris := 0
	for ti, t := range w.tris {
		if w.triAlive[ti] {
			ntris++
			remap[t[0]], remap[t[1]], remap[t[2]] = 0, 0, 0
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
	for v := range w.verts {
		if !w.vertAlive[v] || remap[v] < 0 {
			remap[v] = -1
			continue
		}
		remap[v] = int32(len(out.Verts))
		out.Verts = append(out.Verts, w.verts[v])
		data = append(data, w.data[v])
		if w.track {
			first := len(rows)
			rows = w.appendRow(rows, int32(v))
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
