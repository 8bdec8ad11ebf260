package core

import (
	"context"
	"fmt"
	"math"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/adios"
	"repro/internal/bp"
	"repro/internal/compress"
	"repro/internal/delta"
	"repro/internal/engine"
	"repro/internal/mesh"
	"repro/internal/obs"
	"repro/internal/plan"
	"repro/internal/storage"
)

// maxLevels bounds the level count a writer accepts and a reader believes.
// Readers size per-level state from the metadata before reading anything
// else, so a forged count must not allocate; 64 halvings exceed any mesh.
const maxLevels = 64

// archive is the read side of one stored hierarchy, shared by Reader (a
// single write) and SeriesReader (a campaign): the metadata, parsed once;
// the worker pool; the degrade flag; and a per-level cache of geometry —
// mesh, mapping, tile frame — loaded at most once behind one single-flight.
// The two readers differ only in where a level's containers live. A single
// write keeps geometry and payload in one container, levelKey. A campaign
// keeps each level's geometry in hierKey, shared by every step, and a
// step's payload in stepKey. One level walker serves both: a whole-product
// read (whole), a refine step (refine) and a plan walk (run).
//
// The paper's workloads keep the mesh hierarchy static while the field
// evolves over many timesteps and analysis passes, so a reader pays for a
// level's geometry once and later retrievals charge only the payloads.
// Geometry read through a payload container is billed to the view that
// needed it first; a campaign's geometry is billed to HierarchyCost.
type archive struct {
	aio       *adios.IO
	name      string
	campaign  bool
	mode      Mode
	levels    int
	codec     compress.Codec
	estimator delta.Estimator
	tolerance float64

	// bounds is the planner input recorded at write time: the composed
	// absolute error bound per level, -1 on hierarchies written before
	// bound recording.
	bounds []float64
	// vertCounts[l] is level l's vertex count as recorded at write time,
	// -1 when the metadata does not carry it (campaigns never do).
	vertCounts []int

	pool *engine.Pool

	mu sync.RWMutex // guards degrade, geo and hierCost
	// degrade switches reads to best-effort: stop at the best restored
	// accuracy on a degradable storage failure instead of erroring (see
	// degrade.go).
	degrade  bool
	geo      []*levelGeo // per level, nil until loaded
	hierCost storage.Cost
	flight   engine.Group[int, *levelGeo]
}

// levelGeo is one level's geometry as the walker holds it. mapping and
// tiles are set on the levels that store a delta: every level but the base
// of a delta hierarchy.
type levelGeo struct {
	mesh    *mesh.Mesh
	mapping delta.Mapping
	tiles   tileBox
}

// openArchive parses the metadata container of a single write, or of a
// campaign, and returns it with a lookup of the container's attributes.
func openArchive(ctx context.Context, aio *adios.IO, name string, campaign bool) (*archive, func(string) (string, error), error) {
	what, key := "metadata", metaKey(name)
	if campaign {
		what, key = "series metadata", seriesMetaKey(name)
	}
	h, err := aio.Open(ctx, key, 1)
	if err != nil {
		return nil, nil, fmt.Errorf("canopus: open %s for %q: %w", what, name, err)
	}
	attr := func(key string) (string, error) {
		v, ok := h.BP.Attr(key)
		if !ok {
			return "", fmt.Errorf("canopus: %s for %q missing %s", what, name, key)
		}
		return v, nil
	}
	levelsStr, err := attr("levels")
	if err != nil {
		return nil, nil, err
	}
	levels, err := strconv.Atoi(levelsStr)
	if err != nil || levels < 1 || levels > maxLevels {
		return nil, nil, fmt.Errorf("canopus: bad levels attribute %q", levelsStr)
	}
	codecName, err := attr("codec")
	if err != nil {
		return nil, nil, err
	}
	tolStr, err := attr("tolerance")
	if err != nil {
		return nil, nil, err
	}
	tol, err := strconv.ParseFloat(tolStr, 64)
	if err != nil {
		return nil, nil, fmt.Errorf("canopus: bad tolerance attribute %q", tolStr)
	}
	codec, err := compress.New(codecName, tol)
	if err != nil {
		return nil, nil, err
	}
	estName, err := attr("estimator")
	if err != nil {
		return nil, nil, err
	}
	est, err := delta.EstimatorByName(estName)
	if err != nil {
		return nil, nil, err
	}
	a := &archive{
		aio:        aio,
		name:       name,
		campaign:   campaign,
		levels:     levels,
		codec:      codec,
		estimator:  est,
		tolerance:  tol,
		pool:       engine.NewPool(0),
		geo:        make([]*levelGeo, levels),
		vertCounts: make([]int, levels),
	}
	a.bounds = readPlanAttrs(h, levels)
	for l := range a.vertCounts {
		a.vertCounts[l] = -1
		if n, ok := h.AttrInt(fmt.Sprintf("verts-L%d", l)); ok && n >= 0 && n <= math.MaxInt32 {
			a.vertCounts[l] = int(n)
		}
	}
	return a, attr, nil
}

// SetDegrade toggles graceful degradation on the reader: when a delta
// level is corrupt or its tier stays unreachable after the storage layer's
// retries, reads return the best accuracy actually achieved with a
// Degradation report attached instead of failing. The base level has no
// coarser fallback, so its failures still error. Safe to call concurrently
// with retrievals; in-flight retrievals may use either setting.
func (a *archive) SetDegrade(on bool) {
	a.mu.Lock()
	a.degrade = on
	a.mu.Unlock()
}

func (a *archive) degradeOn() bool {
	a.mu.RLock()
	defer a.mu.RUnlock()
	return a.degrade
}

// SetWorkers resizes the reader's worker pool (n <= 0 means NumCPU). It must
// not be called concurrently with retrievals.
func (a *archive) SetWorkers(n int) { a.pool = engine.NewPool(n) }

// Levels reports the total number of stored accuracy levels N.
func (a *archive) Levels() int { return a.levels }

// Tolerance reports the absolute codec error bound used at write time.
func (a *archive) Tolerance() float64 { return a.tolerance }

// Reader retrieves refactored variables progressively (§III-E, Fig. 1 right
// of the pyramid). Opening a reader touches only the small metadata
// container on the fastest tier.
//
// A Reader is safe for concurrent use: many goroutines may Retrieve (or
// Base/Augment distinct views) at once. A cache miss loads each level's
// geometry exactly once even when several retrievals race to it. Independent
// delta tiles within one retrieval are fetched and decompressed on the
// reader's worker pool.
//
// A Reader reads the write it opened: its metadata and the geometry it has
// loaded are kept for its lifetime, so reopen it after the variable is
// rewritten.
type Reader struct{ *archive }

// OpenReader loads the metadata for a refactored variable.
func OpenReader(ctx context.Context, aio *adios.IO, name string) (*Reader, error) {
	a, attr, err := openArchive(ctx, aio, name, false)
	if err != nil {
		return nil, err
	}
	modeStr, err := attr("mode")
	if err == nil {
		a.mode, err = ModeByName(modeStr)
	}
	if err != nil {
		return nil, err
	}
	return &Reader{a}, nil
}

// Mode reports the stored refactoring mode.
func (r *Reader) Mode() Mode { return r.mode }

// View is data restored to some accuracy level, plus the accumulated cost
// of producing it. Augment refines it in place, one level at a time. A View
// is not shared: concurrent retrievals each build their own.
type View struct {
	// Level is the current accuracy level (N-1 = base, 0 = full).
	Level int
	// Mesh is G^Level; Data is L^Level.
	Mesh *mesh.Mesh
	Data []float64
	// Timings accumulates I/O (simulated), decompression and
	// restoration costs across the retrievals that built this view.
	Timings PhaseTimings
	// ErrorBound is the composed absolute error bound of the view at its
	// current level, from the per-level bounds recorded at write time
	// (DESIGN.md §11). -1 on hierarchies that predate bound recording,
	// except at full accuracy where the codec tolerance is still known.
	ErrorBound float64
	// Degradation is non-nil when the view stopped short of the requested
	// accuracy under SetDegrade; Level then equals AchievedLevel.
	Degradation *Degradation
	// Cost is the request-scoped bill for the Retrieve / RetrieveToTolerance
	// / RetrieveStep call that produced this view: per-tier reads and
	// retries, modeled vs real bytes, cache behavior, decode seconds, and
	// the degradation verdict. Nil on views built by hand through Base /
	// Augment (their costs accumulate in Timings as before).
	Cost *obs.CostReport
}

// decodeProduct decodes one container's whole base/direct data product,
// serving repeats from the handle's decoded-tile cache when one is attached
// (keyed under compress.BaseTile); the payload is already fetched, so a hit
// skips only the decompress CPU. Cached slices are shared and read-only,
// while Augment/restore mutate View data in place, so hits are copied out.
func decodeProduct(ctx context.Context, pool *engine.Pool, codec compress.Codec, h *adios.Handle, level int, payload []byte) ([]float64, error) {
	var st decodeStats
	vals, err := st.decode(ctx, pool, codec, h, level, compress.BaseTile, nil, payload)
	if err != nil || h.TileCache() == nil {
		return vals, err
	}
	st.report(ctx)
	return append([]float64(nil), vals...), nil
}

// Base retrieves the lowest-accuracy view: read L^(N-1) from the fast tier
// and decompress — option (1) in §III-B's walkthrough.
func (r *Reader) Base(ctx context.Context) (*View, error) {
	return r.advance(ctx, 0, nil, r.levels-1)
}

// Augment refines v by one level (toward full accuracy): it retrieves
// delta^((Level-1)-(Level)) and the finer mesh from storage, then applies
// Algorithm 3. The paper's progressive exploration loop is Base() followed
// by Augment() until the accuracy satisfies the analysis. A failed Augment
// leaves v as it was.
func (r *Reader) Augment(ctx context.Context, v *View) error {
	if v.Level == 0 {
		return fmt.Errorf("canopus: %q already at full accuracy", r.name)
	}
	nv, err := r.advance(ctx, 0, v, v.Level-1)
	if err != nil {
		return err
	}
	*v = *nv
	return nil
}

// Retrieve restores the variable to the requested accuracy level. The
// retrieval planner resolves the level into a fetch plan — the base plus
// every required delta in progressive mode, a single product in direct
// mode — and Retrieve executes it. Cancelling ctx aborts the retrieval
// mid-fetch. With degradation enabled, a delta that cannot be read leaves
// the view at the last level that restored cleanly, reported via
// View.Degradation; the base itself must still be readable.
func (r *Reader) Retrieve(ctx context.Context, targetLevel int) (*View, error) {
	if targetLevel < 0 || targetLevel >= r.levels {
		return nil, fmt.Errorf("canopus: level %d out of range [0,%d)", targetLevel, r.levels)
	}
	return r.runPlan(ctx, 0, func(p *plan.Planner) (*plan.Plan, error) { return p.ForLevel(targetLevel) })
}

// RetrieveToTolerance restores the variable to the cheapest accuracy whose
// composed error bound meets eps: the planner picks the coarsest level with
// a recorded bound <= eps and the executor fetches exactly the products
// that level needs, stopping early instead of refining to full accuracy.
// Hierarchies written before bound recording degrade to a conservative
// level-order plan to full accuracy. An eps tighter than the finest
// recorded bound retrieves full accuracy and reports how close it got via
// View.Degradation (RequestedTolerance set, Reason explains the gap).
func (r *Reader) RetrieveToTolerance(ctx context.Context, eps float64) (*View, error) {
	return r.runPlan(ctx, 0, func(p *plan.Planner) (*plan.Plan, error) { return p.ForTolerance(eps) })
}

// finishTolerance attaches the tolerance context to a tolerance-driven
// view: the eps on any degradation report, and a terminal "unreachable"
// report when the plan already knew eps undercuts the finest bound. A level
// plan's Tolerance is 0 and it is never Unreachable, so its view is left as
// it was.
func finishTolerance(ctx context.Context, v *View, pl *plan.Plan) {
	if v.Degradation != nil {
		v.Degradation.RequestedTolerance = pl.Tolerance
		return
	}
	if pl.Unreachable {
		v.Degradation = &Degradation{
			RequestedLevel:     pl.Target,
			AchievedLevel:      v.Level,
			RequestedTolerance: pl.Tolerance,
			Reason: fmt.Sprintf("tolerance %g unreachable: finest recorded bound is %g",
				pl.Tolerance, v.ErrorBound),
			ErrorBound: v.ErrorBound,
		}
		countDegradation(ctx, v.Degradation)
	}
}

// runPlan builds the planner, asks it for a plan and walks the plan over
// step's containers.
func (a *archive) runPlan(ctx context.Context, step int, makePlan func(*plan.Planner) (*plan.Plan, error)) (*View, error) {
	p, err := a.planner()
	if err != nil {
		return nil, err
	}
	pl, err := makePlan(p)
	if err != nil {
		return nil, err
	}
	return a.run(ctx, step, pl, nil)
}

// run walks a planner-produced plan over step's containers. A progressive
// plan reads the base, then refines one level per step; a degradable
// failure under degradation keeps the last level that restored cleanly. A
// direct plan reads its single product and, under degradation, falls back
// along pl.Fallbacks — coarser levels, nearest first — until one reads
// cleanly. All level selection lives in the plan; run only follows it.
//
// A non-nil send makes the walk a subscription: run hands send a snapshot
// of every view before the last, and stops with ctx's error when send
// reports the subscriber gone. Every degradable failure then degrades,
// whatever SetDegrade says, because the views already sent are valid.
func (a *archive) run(ctx context.Context, step int, pl *plan.Plan, send func(*View) bool) (*View, error) {
	op, latency := "core.retrieve", metricRetrieveSeconds
	switch {
	case send != nil:
		op, latency = "core.subscribe", metricSubscribeSeconds
	case a.campaign:
		op, latency = "core.retrieve_step", metricRetrieveStepSeconds
	}
	ctx, req, owned := obs.BeginRequest(ctx, op)
	ctx, span := obs.StartSpan(ctx, op)
	span.SetAttr("name", a.name)
	if a.campaign {
		span.SetAttrInt("step", step)
	}
	span.SetAttrInt("target_level", pl.Target)
	if pl.Tolerance > 0 {
		span.SetAttr("tolerance", strconv.FormatFloat(pl.Tolerance, 'g', -1, 64))
	}
	defer span.End()
	var (
		v   *View
		err error
	)
	for i, st := range pl.Steps {
		var nv *View
		if nv, err = a.advance(ctx, step, v, st.Level); err != nil {
			break
		}
		v = nv
		if send != nil && i < len(pl.Steps)-1 && !send(snapshotView(v)) {
			return nil, ctx.Err()
		}
	}
	if err != nil {
		if !(a.degradeOn() || send != nil) || !degradable(err) {
			return nil, err
		}
		for _, l := range pl.Fallbacks {
			nv, ferr := a.readLevel(ctx, step, l)
			if ferr == nil {
				v = nv
				break
			}
			if !degradable(ferr) {
				return nil, ferr
			}
		}
		if v == nil {
			return nil, err
		}
		a.degradeAt(ctx, span, v, pl, err)
	}
	finishTolerance(ctx, v, pl)
	finishView(v, req, owned, span, latency)
	return v, nil
}

// degradeAt records on v, on the request carried by ctx and on span that
// the walk toward pl's target stopped at v.Level because of err.
func (a *archive) degradeAt(ctx context.Context, span *obs.Span, v *View, pl *plan.Plan, err error) {
	v.Degradation = newDegradation(pl.Target, v.Level, err, a.boundAt(v.Level))
	countDegradation(ctx, v.Degradation)
	span.SetAttrInt("achieved_level", v.Level)
	span.SetAttr("degraded", "true")
}

// advance takes one step of a walk over step's containers, to level l: a
// refinement of v (l is then v.Level-1) in a delta hierarchy; otherwise —
// the first step of a walk, or any step over a direct hierarchy — a
// whole-product read that carries v's costs forward. On error v is left as
// it was.
func (a *archive) advance(ctx context.Context, step int, v *View, l int) (*View, error) {
	if v != nil && a.mode == ModeDelta {
		return v, a.refine(ctx, step, v, nil, nil)
	}
	nv, err := a.readLevel(ctx, step, l)
	if err == nil && v != nil {
		nv.Timings.Add(v.Timings)
	}
	return nv, err
}

// readLevel reads level l's whole data product from step's payload
// container: the base of a delta hierarchy, or any level of a direct one
// (the §II-B baseline).
func (a *archive) readLevel(ctx context.Context, step, l int) (*View, error) {
	name := "core.base"
	if a.mode == ModeDirect {
		name = "core.direct"
	}
	ctx, span := obs.StartSpan(ctx, name)
	span.SetAttr("name", a.name)
	span.SetAttrInt("level", l)
	defer span.End()
	h, g, err := a.open(ctx, step, l)
	if err != nil {
		return nil, err
	}
	span.SetAttr("tier", h.TierName)
	return a.whole(ctx, h, g, l)
}

// whole decodes level l's whole data product from its open payload
// container h into a view over the level's geometry g, billing h's I/O to
// the view.
func (a *archive) whole(ctx context.Context, h *adios.Handle, g *levelGeo, l int) (*View, error) {
	p, err := fetchProduct(h, l, engine.KindData, 0)
	if err != nil {
		return nil, err
	}
	v := &View{Level: l, Mesh: g.mesh, ErrorBound: a.boundAt(l)}
	v.Timings.addHandleIO(ctx, h)
	dspan := obs.FromContext(ctx).Child("core.decompress")
	t0 := time.Now()
	v.Data, err = decodeProduct(ctx, a.pool, a.codec, h, l, p.Payload)
	v.Timings.fold(ctx, PhaseTimings{DecompressSeconds: time.Since(t0).Seconds()})
	dspan.End()
	if err != nil {
		return nil, fmt.Errorf("canopus: decompress level %d: %w", l, err)
	}
	if len(v.Data) != g.mesh.NumVerts() {
		return nil, fmt.Errorf("canopus: level %d data %d values for %d vertices", l, len(v.Data), g.mesh.NumVerts())
	}
	return v, nil
}

// refine applies delta^((v.Level-1)-(v.Level)) from step's payload
// container to v (Algorithm 3). v changes only on success, so a failed
// refinement leaves a complete view of the coarser level — what degradation
// returns. h is the container when the caller already holds it open, else
// nil. A non-nil want masks the refinement to the vertices it selects (the
// region read): only the tiles holding them are fetched and restored,
// bit-identically to a full refinement, and every other entry is zero. A
// masked refinement needs the level's geometry already loaded, and v's data
// must be valid at the corners the wanted vertices restore from.
func (a *archive) refine(ctx context.Context, step int, v *View, h *adios.Handle, want []bool) error {
	l := v.Level - 1
	ctx, span := obs.StartSpan(ctx, "core.augment")
	span.SetAttr("name", a.name)
	span.SetAttrInt("level", l)
	defer span.End()
	if h == nil {
		var err error
		if h, err = a.aio.Open(ctx, a.payloadKey(step, l), 1); err != nil {
			return err
		}
	}
	span.SetAttr("tier", h.TierName)
	// The level's geometry and its delta tiles are independent until the
	// restore, so what the reader does not already hold is loaded side by
	// side with the tiles. On a warm reader only the tiles are left, and a
	// lone unit runs in this goroutine: a server's cached readers pay for
	// no fan-out.
	var (
		d    []float64
		dec  decodeStats
		have []bool
		mask []bool // tiles to fetch; nil: every tile
	)
	g := a.cached(l)
	warm := g
	if want != nil {
		mask = maskTiles(g, want)
	}
	var units []engine.Unit
	if g == nil {
		units = append(units, func(ctx context.Context) (err error) { g, err = a.level(ctx, h, l); return err })
	}
	units = append(units, func(ctx context.Context) error {
		tb, n, err := a.tileInputs(ctx, h, l, warm)
		if err != nil {
			return err
		}
		tiles, err := fetchDeltaChunks(h, tb, l, mask)
		if err != nil {
			return err
		}
		d = make([]float64, n)
		if want != nil {
			have = make([]bool, n)
		}
		return tiles.decodeInto(ctx, a.pool, h, a.codec, d, have, &dec)
	})
	// The step's costs fold only once every unit has succeeded, so a failed
	// step folds into neither ledger.
	if err := a.pool.Run(ctx, units...); err != nil {
		return err
	}
	v.Timings.addHandleIO(ctx, h)
	v.Timings.fold(ctx, PhaseTimings{DecompressSeconds: dec.seconds})
	dec.report(ctx)
	// In-place restore: the delta buffer becomes the fine data, and the
	// per-vertex loop shards over the reader's pool. A masked restore
	// computes only the wanted vertices, each exactly as RestoreInto would;
	// writes target disjoint indices, and the first missing delta by index
	// wins at every worker count.
	err := restorePhase(ctx, &v.Timings, l, func() (err error) {
		if want == nil {
			d, err = delta.RestoreInto(ctx, a.pool, g.mesh, v.Mesh, v.Data, g.mapping, d, a.estimator, d)
			return err
		}
		return a.pool.RunRange(ctx, len(want), func(start, end int) error {
			for vi := start; vi < end; vi++ {
				switch {
				case !want[vi]:
					d[vi] = 0
				case !have[vi]:
					return fmt.Errorf("canopus: level %d vertex %d missing from fetched chunks", l, vi)
				default:
					d[vi] += delta.EstimateVertex(g.mesh, v.Mesh, v.Data, g.mapping, a.estimator, int32(vi))
				}
			}
			return nil
		})
	})
	if err != nil {
		return fmt.Errorf("canopus: restore level %d: %w", l, err)
	}
	v.Level, v.Mesh, v.Data, v.ErrorBound = l, g.mesh, d, a.boundAt(l)
	return nil
}

// maskTiles marks the tiles of level geometry g that hold a vertex want
// selects.
func maskTiles(g *levelGeo, want []bool) []bool {
	tiles := make([]bool, g.tiles.n*g.tiles.n)
	for vi, w := range want {
		if w {
			v := g.mesh.Verts[vi]
			tiles[g.tiles.tileOf(v.X, v.Y)] = true
		}
	}
	return tiles
}

// tileInputs returns what level l's tile scatter needs: the tile frame and
// the vertex count. A single write records both beside the payload — the
// frame on the container, the count in the metadata (verts-L<l>) — so a
// cold level's tiles need not wait for its geometry. Otherwise they come
// with the geometry; a count that disagrees with the geometry fails the
// restore's length check.
func (a *archive) tileInputs(ctx context.Context, h *adios.Handle, l int, g *levelGeo) (tileBox, int, error) {
	if g == nil && !a.campaign && a.vertCounts[l] >= 0 {
		tb, err := tileFrame(h)
		return tb, a.vertCounts[l], err
	}
	if g == nil {
		var err error
		if g, err = a.level(ctx, h, l); err != nil {
			return tileBox{}, 0, err
		}
	}
	return g.tiles, g.mesh.NumVerts(), nil
}

// restorePhase runs fn, one level's Algorithm 3 restore, as the read path's
// restore phase: under a core.restore span, with its wall time folded into
// t and the request carried by ctx.
func restorePhase(ctx context.Context, t *PhaseTimings, l int, fn func() error) error {
	span := obs.FromContext(ctx).Child("core.restore")
	span.SetAttrInt("level", l)
	t0 := time.Now()
	err := fn()
	t.fold(ctx, PhaseTimings{RestoreSeconds: time.Since(t0).Seconds()})
	span.End()
	return err
}

// payloadKey names the container holding level l's data product or delta
// tiles: the level container of a single write, or one campaign step's.
func (a *archive) payloadKey(step, l int) string {
	if a.campaign {
		return stepKey(a.name, step, l)
	}
	return levelKey(a.name, l)
}

// open opens level l's payload container for step and returns it with the
// level's geometry.
func (a *archive) open(ctx context.Context, step, l int) (*adios.Handle, *levelGeo, error) {
	h, err := a.aio.Open(ctx, a.payloadKey(step, l), 1)
	if err != nil {
		return nil, nil, err
	}
	g, err := a.level(ctx, h, l)
	return h, g, err
}

// cached returns level l's geometry if the reader holds it, else nil.
func (a *archive) cached(l int) *levelGeo {
	a.mu.RLock()
	defer a.mu.RUnlock()
	return a.geo[l]
}

// level returns level l's geometry, loading it at most once across
// concurrent retrievals; h is the caller's open payload container. Callers
// that miss together share one load, run under the first caller's ctx; if
// that caller gives up mid-load, the engine.Group rule has the others load
// the level again under their own.
func (a *archive) level(ctx context.Context, h *adios.Handle, l int) (*levelGeo, error) {
	if g := a.cached(l); g != nil {
		return g, nil
	}
	return a.flight.Do(l, func() (*levelGeo, error) {
		if g := a.cached(l); g != nil {
			return g, nil
		}
		return a.loadLevel(ctx, h, l)
	})
}

// loadLevel reads level l's geometry — mesh, and on delta levels the
// mapping and tile frame — decoding the mesh and the mapping side by side.
// A single write's geometry is read through the payload container h and
// billed to it; a campaign's comes from its shared hierarchy container,
// billed to hierCost.
func (a *archive) loadLevel(ctx context.Context, h *adios.Handle, l int) (*levelGeo, error) {
	if a.campaign {
		var err error
		if h, err = a.aio.Open(ctx, hierKey(a.name, l), 1); err != nil {
			return nil, err
		}
	}
	g := &levelGeo{}
	units := []engine.Unit{func(ctx context.Context) (err error) { g.mesh, err = fetchMesh(ctx, a.pool, h, l); return err }}
	if a.mode == ModeDelta && l < a.levels-1 {
		var err error
		if g.tiles, err = tileFrame(h); err != nil {
			return nil, err
		}
		units = append(units, func(context.Context) (err error) { g.mapping, err = fetchMapping(h, l); return err })
	}
	if err := a.pool.Run(ctx, units...); err != nil {
		return nil, err
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	a.geo[l] = g
	if a.campaign {
		a.hierCost.Add(h.Cost())
	}
	return g, nil
}

// tileScratch is one shard's reusable decode state in the tile reader: the
// decoded values and the decoded id runs of the tile in hand.
type tileScratch struct {
	vals []float64
	runs []idRun
}

// tileScratchPool recycles the per-shard decode buffers of the tile reader:
// every shard of the fan-out decodes its tiles' values and id runs into one
// reused tileScratch instead of allocating fresh buffers per tile.
var tileScratchPool = sync.Pool{
	New: func() any {
		return &tileScratch{vals: make([]float64, 0, 4096), runs: make([]idRun, 0, 1024)}
	},
}

// decodeStats is what one decode pass measured: its wall time and its
// decoded-tile cache hits and misses.
type decodeStats struct {
	seconds      float64
	hits, misses atomic.Int64
}

// decode decodes enc, tile `tile` of level's products in h (compress.BaseTile
// for a whole product), into dst. With h's decoded-tile cache attached a
// repeat is served from the cache, a miss decodes into a fresh slice the
// cache keeps — the result is then shared and read-only, and dst unused —
// and a successful lookup is counted.
func (st *decodeStats) decode(ctx context.Context, pool *engine.Pool, codec compress.Codec, h *adios.Handle, level, tile int, dst []float64, enc []byte) ([]float64, error) {
	tc := h.TileCache()
	if tc == nil {
		return compress.ChunkedDecodeInto(ctx, pool, codec, dst, enc)
	}
	vals, hit, err := tc.GetOrDecode(h.Key(), level, tile, func() ([]float64, error) {
		return compress.ChunkedDecodeInto(ctx, pool, codec, nil, enc)
	})
	switch {
	case err != nil:
	case hit:
		st.hits.Add(1)
	default:
		st.misses.Add(1)
	}
	return vals, err
}

// report adds the counted lookups to the request carried by ctx.
func (st *decodeStats) report(ctx context.Context) {
	obs.RequestFrom(ctx).AddTileCache(st.hits.Load(), st.misses.Load())
}

// deltaTiles is one level's delta tiles as fetched: still encoded, in
// ascending tile order.
type deltaTiles struct {
	level    int
	present  []int // tile index of each payload
	payloads [][]byte
}

// fetchDeltaChunks is the I/O half of the tile reader, one planned pass: the
// wanted tiles' extents are coalesced per the tier's gap threshold and
// fetched as a few ranged reads (Handle.ReadManyBytes), so the storage layer
// sees contiguous range requests instead of one operation per tile. want
// marks the tiles to fetch, nil meaning every tile; a marked tile must be
// stored.
func fetchDeltaChunks(h *adios.Handle, tb tileBox, level int, want []bool) (*deltaTiles, error) {
	var vars []bp.VarInfo
	var present []int
	for ci := 0; ci < tb.n*tb.n; ci++ {
		if want != nil && !want[ci] {
			continue
		}
		v, ok := h.InqVar(chunkVarName(ci), level)
		if !ok {
			if want != nil {
				return nil, fmt.Errorf("canopus: level %d missing delta chunk %d", level, ci)
			}
			continue // empty tile
		}
		vars = append(vars, v)
		present = append(present, ci)
	}
	payloads, err := h.ReadManyBytes(vars)
	if err != nil {
		return nil, err
	}
	return &deltaTiles{level: level, present: present, payloads: payloads}, nil
}

// decodeInto is the CPU half of the tile reader: it decodes the fetched
// tiles and scatters the values into out. Decoding fans out on the pool,
// sharded over tiles: tiles cover disjoint vertex id sets, so concurrent
// scatters into out and have are race-free, and the restored field does not
// depend on the worker count. When the container holds fewer tiles than the
// pool has workers (the Chunks=1 layout), the chunked codec container
// supplies the parallelism instead: each tile's frame fans out chunk-wise on
// the same pool. It folds nothing: it measures into st, which the caller
// folds once the whole step has succeeded.
func (dt *deltaTiles) decodeInto(ctx context.Context, pool *engine.Pool, h *adios.Handle, codec compress.Codec, out []float64, have []bool, st *decodeStats) error {
	level, present, payloads := dt.level, dt.present, dt.payloads
	dspan := obs.FromContext(ctx).Child("core.decompress")
	dspan.SetAttrInt("tiles", len(present))
	defer dspan.End()
	// Tile-level and chunk-level parallelism compete for the same pool;
	// route the pool to whichever axis has the fan-out.
	var innerPool *engine.Pool
	if len(present) < pool.Workers() {
		innerPool = pool
	}
	// Decoded-tile cache hits skip the decode, never the fetch above. Cached
	// slices are read-only — the scatter below only copies out of vals — so
	// only an uncached decode lands in, and may grow, the pooled scratch.
	cached := h.TileCache() != nil
	t0 := time.Now()
	err := pool.RunRange(ctx, len(present), func(start, end int) error {
		scratch := tileScratchPool.Get().(*tileScratch)
		defer tileScratchPool.Put(scratch)
		for i := start; i < end; i++ {
			ci := present[i]
			runs, total, enc, err := parseChunkPayload(payloads[i], scratch.runs)
			scratch.runs = runs
			if err != nil {
				return fmt.Errorf("canopus: level %d chunk %d: %w", level, ci, err)
			}
			vals, err := st.decode(ctx, innerPool, codec, h, level, ci, scratch.vals[:0], enc)
			if !cached && cap(vals) > cap(scratch.vals) {
				scratch.vals = vals[:0]
			}
			if err != nil {
				return fmt.Errorf("canopus: decompress delta %d chunk %d: %w", level, ci, err)
			}
			if len(vals) != total {
				return fmt.Errorf("canopus: level %d chunk %d: %d values for %d ids", level, ci, len(vals), total)
			}
			if bad, ok := scatterRuns(runs, vals, out, have); !ok {
				return fmt.Errorf("canopus: level %d chunk %d: vertex id %d out of range", level, ci, bad)
			}
		}
		return nil
	})
	st.seconds = time.Since(t0).Seconds()
	return err
}

// tileFrame parses the tiling frame recorded on a container.
func tileFrame(h *adios.Handle) (tileBox, error) {
	s, ok := h.BP.Attr("tile-frame")
	if !ok {
		return tileBox{}, fmt.Errorf("canopus: container %s missing tile-frame attribute", h.Key())
	}
	return parseTileBox(s)
}

// RawReader retrieves the WriteRaw baseline product. Like Reader, it caches
// the static mesh after the first retrieval, so warm retrievals measure
// data I/O only — the same steady-state convention. It is safe for
// concurrent use.
type RawReader struct {
	aio  *adios.IO
	name string

	mu   sync.Mutex
	mesh *mesh.Mesh
}

// OpenRawReader prepares retrieval of a WriteRaw product.
func OpenRawReader(aio *adios.IO, name string) (*RawReader, error) {
	if aio.H.Where(rawKey(name)) < 0 {
		return nil, fmt.Errorf("canopus: open raw %q: %w", name, storage.ErrNotFound)
	}
	return &RawReader{aio: aio, name: name}, nil
}

// Retrieve reads the full-accuracy baseline.
func (r *RawReader) Retrieve(ctx context.Context) (*View, error) {
	h, err := r.aio.Open(ctx, rawKey(r.name), 1)
	if err != nil {
		return nil, err
	}
	r.mu.Lock()
	m := r.mesh
	r.mu.Unlock()
	if m == nil {
		encMesh, err := h.ReadBytes("mesh", 0)
		if err != nil {
			return nil, err
		}
		m, _, err = mesh.Decode(encMesh)
		if err != nil {
			return nil, err
		}
		r.mu.Lock()
		r.mesh = m
		r.mu.Unlock()
	}
	raw, err := h.ReadBytes("data", 0)
	if err != nil {
		return nil, err
	}
	data, err := compress.Raw{}.DecodeInto(nil, raw)
	if err != nil {
		return nil, err
	}
	v := &View{Level: 0, Mesh: m, Data: data}
	v.Timings.addHandleIO(ctx, h)
	return v, nil
}
