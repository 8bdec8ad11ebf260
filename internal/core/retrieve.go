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

// Reader retrieves refactored variables progressively (§III-E, Fig. 1 right
// of the pyramid). Opening a reader touches only the small metadata
// container on the fastest tier.
//
// The reader caches decoded mesh geometry and vertex→triangle mappings per
// level: in the paper's workloads the mesh hierarchy is static while the
// field evolves over many timesteps and many analysis passes, so a session
// pays mesh I/O once and subsequent retrievals charge only the data/delta
// payloads. Retrieval timings on a warm reader therefore reflect the
// steady-state analysis cost the paper measures.
//
// A Reader is safe for concurrent use: many goroutines may Retrieve (or
// Base/Augment distinct views) at once. The caches are mutex-guarded and a
// cache miss decodes each level's mesh and mapping exactly once even when
// several retrievals race to it. Independent delta tiles within one
// retrieval are fetched and decompressed on the reader's worker pool.
type Reader struct {
	aio       *adios.IO
	name      string
	mode      Mode
	levels    int
	codec     compress.Codec
	estimator delta.Estimator
	tolerance float64
	rawBytes  int64

	// bounds and levelBytes are the planner inputs recorded at write time:
	// composed absolute error bound and modeled container size per level.
	// bounds[l] is -1 on hierarchies written before bound recording.
	bounds     []float64
	levelBytes []int64
	// vertCounts[l] is level l's vertex count as recorded at write time,
	// -1 when the metadata does not carry it.
	vertCounts []int

	// degrade switches Retrieve/RetrieveRegion to best-effort: stop at the
	// best restored accuracy on a degradable storage failure instead of
	// erroring (see degrade.go). Guarded by mu so SetDegrade is safe against
	// concurrent retrievals.
	degrade bool

	pool *engine.Pool

	mu           sync.RWMutex // guards the caches below
	meshCache    map[int]*mesh.Mesh
	mappingCache map[int]delta.Mapping
	flight       engine.Group
}

// OpenReaderWith loads the metadata for a refactored variable and applies
// the read-side options (currently only opts.Degrade; layout options come
// from the stored metadata, not from opts).
func OpenReaderWith(ctx context.Context, aio *adios.IO, name string, opts Options) (*Reader, error) {
	r, err := OpenReader(ctx, aio, name)
	if err != nil {
		return nil, err
	}
	r.SetDegrade(opts.Degrade)
	return r, nil
}

// SetDegrade toggles graceful degradation on the reader (see
// Options.Degrade). Safe to call concurrently with retrievals; in-flight
// retrievals may use either setting.
func (r *Reader) SetDegrade(on bool) {
	r.mu.Lock()
	r.degrade = on
	r.mu.Unlock()
}

func (r *Reader) degradeOn() bool {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.degrade
}

// OpenReader loads the metadata for a refactored variable.
func OpenReader(ctx context.Context, aio *adios.IO, name string) (*Reader, error) {
	h, err := aio.Open(ctx, metaKey(name), 1)
	if err != nil {
		return nil, fmt.Errorf("canopus: open metadata for %q: %w", name, err)
	}
	attr := func(key string) (string, error) {
		v, ok := h.BP.Attr(key)
		if !ok {
			return "", fmt.Errorf("canopus: metadata for %q missing %s", name, key)
		}
		return v, nil
	}
	modeStr, err := attr("mode")
	if err != nil {
		return nil, err
	}
	mode, err := ModeByName(modeStr)
	if err != nil {
		return nil, err
	}
	levelsStr, err := attr("levels")
	if err != nil {
		return nil, err
	}
	levels, err := strconv.Atoi(levelsStr)
	if err != nil || levels < 1 {
		return nil, fmt.Errorf("canopus: bad levels attribute %q", levelsStr)
	}
	codecName, err := attr("codec")
	if err != nil {
		return nil, err
	}
	tolStr, err := attr("tolerance")
	if err != nil {
		return nil, err
	}
	tol, err := strconv.ParseFloat(tolStr, 64)
	if err != nil {
		return nil, fmt.Errorf("canopus: bad tolerance attribute %q", tolStr)
	}
	codec, err := compress.New(codecName, tol)
	if err != nil {
		return nil, err
	}
	estName, err := attr("estimator")
	if err != nil {
		return nil, err
	}
	est, err := delta.EstimatorByName(estName)
	if err != nil {
		return nil, err
	}
	r := &Reader{
		aio:          aio,
		name:         name,
		mode:         mode,
		levels:       levels,
		codec:        codec,
		estimator:    est,
		tolerance:    tol,
		pool:         engine.NewPool(0),
		meshCache:    make(map[int]*mesh.Mesh),
		mappingCache: make(map[int]delta.Mapping),
	}
	if raw, ok := h.BP.Attr("raw-bytes"); ok {
		r.rawBytes, _ = strconv.ParseInt(raw, 10, 64)
	}
	r.bounds, r.levelBytes = readPlanAttrs(h, levels)
	r.vertCounts = make([]int, levels)
	for l := range r.vertCounts {
		r.vertCounts[l] = -1
		if n, ok := h.AttrInt(fmt.Sprintf("verts-L%d", l)); ok && n >= 0 && n <= math.MaxInt32 {
			r.vertCounts[l] = int(n)
		}
	}
	return r, nil
}

// SetWorkers resizes the reader's worker pool (n <= 0 means NumCPU). It must
// not be called concurrently with retrievals.
func (r *Reader) SetWorkers(n int) { r.pool = engine.NewPool(n) }

// Levels reports the total number of stored accuracy levels N.
func (r *Reader) Levels() int { return r.levels }

// Mode reports the stored refactoring mode.
func (r *Reader) Mode() Mode { return r.mode }

// Tolerance reports the absolute codec error bound used at write time.
func (r *Reader) Tolerance() float64 { return r.tolerance }

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
	// accuracy under Options.Degrade; Level then equals AchievedLevel.
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
// (keyed under compress.BaseTile). By the time this runs the payload bytes
// have already been fetched, so a hit skips only the decompress CPU — the
// request's I/O bill is identical either way (TileCache's cost invariant).
// Cached slices are shared and read-only, while View data is caller-owned
// and mutated in place by Augment/restore, so cache results are copied out.
func decodeProduct(ctx context.Context, pool *engine.Pool, codec compress.Codec, h *adios.Handle, level int, payload []byte) ([]float64, error) {
	tc := h.TileCache()
	if tc == nil {
		return compress.ChunkedDecode(ctx, pool, codec, payload)
	}
	vals, hit, err := tc.GetOrDecode(h.Key(), level, compress.BaseTile, func() ([]float64, error) {
		return compress.ChunkedDecode(ctx, pool, codec, payload)
	})
	if err != nil {
		return nil, err
	}
	if hit {
		obs.RequestFrom(ctx).AddTileCache(1, 0)
	} else {
		obs.RequestFrom(ctx).AddTileCache(0, 1)
	}
	out := make([]float64, len(vals))
	copy(out, vals)
	return out, nil
}

// Base retrieves the lowest-accuracy view: read L^(N-1) from the fast tier
// and decompress — option (1) in §III-B's walkthrough.
func (r *Reader) Base(ctx context.Context) (*View, error) {
	l := r.levels - 1
	if r.mode == ModeDirect {
		return r.retrieveDirect(ctx, l)
	}
	ctx, span := obs.StartSpan(ctx, "core.base")
	span.SetAttr("name", r.name)
	span.SetAttrInt("level", l)
	defer span.End()
	h, err := r.aio.Open(ctx, levelKey(r.name, l), 1)
	if err != nil {
		return nil, err
	}
	span.SetAttr("tier", h.TierName)
	p, err := fetchProduct(h, l, engine.KindData, 0)
	if err != nil {
		return nil, err
	}
	m, err := r.readMesh(ctx, h, l)
	if err != nil {
		return nil, err
	}
	v := &View{Level: l, Mesh: m, ErrorBound: r.boundAt(l)}
	v.Timings.addHandleIO(ctx, h)

	dspan := span.Child("core.decompress")
	t0 := time.Now()
	v.Data, err = decodeProduct(ctx, r.pool, r.codec, h, l, p.Payload)
	v.Timings.DecompressSeconds = time.Since(t0).Seconds()
	dspan.End()
	metricDecompressSeconds.Add(v.Timings.DecompressSeconds)
	obs.RequestFrom(ctx).AddDecompress(v.Timings.DecompressSeconds)
	if err != nil {
		return nil, fmt.Errorf("canopus: decompress base: %w", err)
	}
	if len(v.Data) != m.NumVerts() {
		return nil, fmt.Errorf("canopus: base data %d values for %d vertices", len(v.Data), m.NumVerts())
	}
	return v, nil
}

// Augment refines v by one level (toward full accuracy): it retrieves
// delta^((Level-1)-(Level)) and the finer mesh from storage, then applies
// Algorithm 3. The paper's progressive exploration loop is Base() followed
// by Augment() until the accuracy satisfies the analysis.
func (r *Reader) Augment(ctx context.Context, v *View) error {
	if v.Level == 0 {
		return fmt.Errorf("canopus: %q already at full accuracy", r.name)
	}
	fineLevel := v.Level - 1
	if r.mode == ModeDirect {
		nv, err := r.retrieveDirect(ctx, fineLevel)
		if err != nil {
			return err
		}
		nv.Timings.Add(v.Timings)
		*v = *nv
		return nil
	}
	ctx, span := obs.StartSpan(ctx, "core.augment")
	span.SetAttr("name", r.name)
	span.SetAttrInt("level", fineLevel)
	defer span.End()
	metricAugments.Inc()
	h, err := r.aio.Open(ctx, levelKey(r.name, fineLevel), 1)
	if err != nil {
		return err
	}
	span.SetAttr("tier", h.TierName)
	tb, err := r.tileFrame(h)
	if err != nil {
		return err
	}
	// The level's three inputs are independent until the restore, so what
	// the reader does not already hold is fetched and decoded side by side
	// with the tiles. The tile scatter needs the fine vertex count before
	// the geometry has decoded; the metadata recorded it (vertCount). On a
	// warm reader only the tiles are left, and a lone unit runs in this
	// goroutine: a server's cached readers pay for no fan-out.
	var (
		d          []float64
		decompress engine.Counter
	)
	fineMesh, mp := r.cached(fineLevel)
	var units []engine.Unit
	if mp == nil {
		units = append(units, func(context.Context) (err error) { mp, err = r.readMapping(h, fineLevel); return err })
	}
	if fineMesh == nil {
		units = append(units, func(ctx context.Context) (err error) { fineMesh, err = r.readMesh(ctx, h, fineLevel); return err })
	}
	units = append(units, func(ctx context.Context) error {
		tiles, err := fetchDeltaChunks(h, tb, fineLevel, nil)
		if err != nil {
			return err
		}
		n, err := r.vertCount(ctx, h, fineLevel)
		if err != nil {
			return err
		}
		d = make([]float64, n)
		return tiles.decodeInto(ctx, r.pool, h, r.codec, d, nil, &decompress)
	})
	if err := r.pool.Run(ctx, units...); err != nil {
		return err
	}
	v.Timings.addHandleIO(ctx, h)
	v.Timings.DecompressSeconds += decompress.Value()

	rspan := span.Child("core.restore")
	t0 := time.Now()
	// In-place restore: the delta buffer becomes the fine data, and the
	// per-vertex loop shards over the reader's pool.
	fineData, err := delta.RestoreInto(ctx, r.pool, fineMesh, v.Mesh, v.Data, mp, d, r.estimator, d)
	restoreSecs := time.Since(t0).Seconds()
	rspan.End()
	v.Timings.RestoreSeconds += restoreSecs
	metricRestoreSeconds.Add(restoreSecs)
	obs.RequestFrom(ctx).AddRestore(restoreSecs)
	if err != nil {
		return fmt.Errorf("canopus: restore level %d: %w", fineLevel, err)
	}

	v.Level = fineLevel
	v.Mesh = fineMesh
	v.Data = fineData
	v.ErrorBound = r.boundAt(fineLevel)
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
	p, err := r.planner()
	if err != nil {
		return nil, err
	}
	pl, err := p.ForLevel(targetLevel)
	if err != nil {
		return nil, err
	}
	return r.execute(ctx, pl)
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
	p, err := r.planner()
	if err != nil {
		return nil, err
	}
	pl, err := p.ForTolerance(eps)
	if err != nil {
		return nil, err
	}
	metricToleranceRetrievals.Inc()
	ctx, req, owned := obs.BeginRequest(ctx, "core.retrieve")
	v, err := r.execute(ctx, pl)
	if err != nil {
		return nil, err
	}
	finishTolerance(ctx, v, pl)
	finishView(v, req, owned, obs.FromContext(ctx), metricRetrieveSeconds)
	return v, nil
}

// finishTolerance attaches the tolerance context to a tolerance-driven
// view: the eps on any degradation report, and a terminal "unreachable"
// report when the plan already knew eps undercuts the finest bound.
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

// execute walks a planner-produced Plan: progressive plans apply the steps
// coarse-to-fine (base first, then each delta), direct plans fetch their
// single product and fall back along pl.Fallbacks under degradation. All
// level selection lives in the plan; execute only follows it.
func (r *Reader) execute(ctx context.Context, pl *plan.Plan) (*View, error) {
	ctx, req, owned := obs.BeginRequest(ctx, "core.retrieve")
	ctx, span := obs.StartSpan(ctx, "core.retrieve")
	span.SetAttr("name", r.name)
	span.SetAttrInt("target_level", pl.Target)
	if pl.Tolerance > 0 {
		span.SetAttr("tolerance", strconv.FormatFloat(pl.Tolerance, 'g', -1, 64))
	}
	defer span.End()
	metricRetrievals.Inc()
	if pl.Mode == plan.Direct {
		v, err := r.executeDirect(ctx, span, pl)
		if err != nil {
			return nil, err
		}
		finishView(v, req, owned, span, metricRetrieveSeconds)
		return v, nil
	}
	v, err := r.Base(ctx)
	if err != nil {
		return nil, err
	}
	for range pl.Steps[1:] {
		if err := r.Augment(ctx, v); err != nil {
			if r.degradeOn() && degradable(err) {
				v.Degradation = newDegradation(pl.Target, v.Level, err, r.boundAt(v.Level))
				countDegradation(ctx, v.Degradation)
				span.SetAttrInt("achieved_level", v.Level)
				span.SetAttr("degraded", "true")
				finishView(v, req, owned, span, metricRetrieveSeconds)
				return v, nil
			}
			return nil, err
		}
	}
	finishView(v, req, owned, span, metricRetrieveSeconds)
	return v, nil
}

// executeDirect is execute's direct-mode body: each level is an
// independently stored product, so degradation walks the plan's fallback
// order — coarser levels, nearest first — until one reads cleanly.
func (r *Reader) executeDirect(ctx context.Context, span *obs.Span, pl *plan.Plan) (*View, error) {
	v, err := r.retrieveDirect(ctx, pl.Steps[0].Level)
	if err == nil || !r.degradeOn() || !degradable(err) {
		return v, err
	}
	firstErr := err
	for _, l := range pl.Fallbacks {
		v, lerr := r.retrieveDirect(ctx, l)
		if lerr == nil {
			v.Degradation = newDegradation(pl.Target, l, firstErr, r.boundAt(l))
			countDegradation(ctx, v.Degradation)
			span.SetAttrInt("achieved_level", l)
			span.SetAttr("degraded", "true")
			return v, nil
		}
		if !degradable(lerr) {
			return nil, lerr
		}
	}
	return nil, firstErr
}

// retrieveDirect reads level l compressed directly (the §II-B baseline).
func (r *Reader) retrieveDirect(ctx context.Context, l int) (*View, error) {
	ctx, span := obs.StartSpan(ctx, "core.direct")
	span.SetAttr("name", r.name)
	span.SetAttrInt("level", l)
	defer span.End()
	h, err := r.aio.Open(ctx, levelKey(r.name, l), 1)
	if err != nil {
		return nil, err
	}
	span.SetAttr("tier", h.TierName)
	p, err := fetchProduct(h, l, engine.KindData, 0)
	if err != nil {
		return nil, err
	}
	m, err := r.readMesh(ctx, h, l)
	if err != nil {
		return nil, err
	}
	v := &View{Level: l, Mesh: m, ErrorBound: r.boundAt(l)}
	v.Timings.addHandleIO(ctx, h)
	dspan := span.Child("core.decompress")
	t0 := time.Now()
	v.Data, err = decodeProduct(ctx, r.pool, r.codec, h, l, p.Payload)
	v.Timings.DecompressSeconds = time.Since(t0).Seconds()
	dspan.End()
	metricDecompressSeconds.Add(v.Timings.DecompressSeconds)
	obs.RequestFrom(ctx).AddDecompress(v.Timings.DecompressSeconds)
	if err != nil {
		return nil, fmt.Errorf("canopus: decompress level %d: %w", l, err)
	}
	return v, nil
}

// cached returns what the reader already holds of level l: nil for a mesh
// or a mapping not loaded yet.
func (r *Reader) cached(l int) (*mesh.Mesh, delta.Mapping) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.meshCache[l], r.mappingCache[l]
}

// readMesh returns level l's mesh, decoding it at most once across all
// concurrent retrievals (single-flight on a cache miss).
func (r *Reader) readMesh(ctx context.Context, h *adios.Handle, l int) (*mesh.Mesh, error) {
	r.mu.RLock()
	m, ok := r.meshCache[l]
	r.mu.RUnlock()
	if ok {
		return m, nil
	}
	v, err := r.flight.Do(fmt.Sprintf("mesh/%d", l), func() (any, error) {
		r.mu.RLock()
		m, ok := r.meshCache[l]
		r.mu.RUnlock()
		if ok {
			return m, nil
		}
		m, err := fetchMesh(ctx, r.pool, h, l)
		if err != nil {
			return nil, err
		}
		r.mu.Lock()
		r.meshCache[l] = m
		r.mu.Unlock()
		return m, nil
	})
	if err != nil {
		return nil, err
	}
	return v.(*mesh.Mesh), nil
}

// vertCount reports level l's vertex count without waiting for its geometry
// when the metadata recorded it (verts-L<l>); on archives that did not, it
// comes from the geometry itself. A count that disagrees with the geometry
// fails the restore's length check.
func (r *Reader) vertCount(ctx context.Context, h *adios.Handle, l int) (int, error) {
	if n := r.vertCounts[l]; n >= 0 {
		return n, nil
	}
	m, err := r.readMesh(ctx, h, l)
	if err != nil {
		return 0, err
	}
	return m.NumVerts(), nil
}

// readMapping returns level l's vertex→triangle mapping, decoding it at most
// once across all concurrent retrievals.
func (r *Reader) readMapping(h *adios.Handle, l int) (delta.Mapping, error) {
	r.mu.RLock()
	mp, ok := r.mappingCache[l]
	r.mu.RUnlock()
	if ok {
		return mp, nil
	}
	v, err := r.flight.Do(fmt.Sprintf("mapping/%d", l), func() (any, error) {
		r.mu.RLock()
		mp, ok := r.mappingCache[l]
		r.mu.RUnlock()
		if ok {
			return mp, nil
		}
		mp, err := fetchMapping(h, l)
		if err != nil {
			return nil, err
		}
		r.mu.Lock()
		r.mappingCache[l] = mp
		r.mu.Unlock()
		return mp, nil
	})
	if err != nil {
		return nil, err
	}
	return v.(delta.Mapping), nil
}

// readDeltaChunks reads delta tiles from an open level container and
// scatters the decoded values into out (sized to the fine vertex count).
// When wantChunks is nil every stored tile is read (full augmentation);
// otherwise only the listed tile indices are fetched — the focused-read
// path. have, when non-nil, is marked true for each vertex whose delta was
// loaded. Decompression time accumulates into decompress.
func (r *Reader) readDeltaChunks(ctx context.Context, h *adios.Handle, level int, wantChunks []int, out []float64, have []bool, decompress *engine.Counter) error {
	tb, err := r.tileFrame(h)
	if err != nil {
		return err
	}
	return readDeltaChunksFrom(ctx, r.pool, h, r.codec, tb, level, wantChunks, out, have, decompress)
}

// readDeltaChunksFrom is the container-agnostic tile reader shared by the
// single-variable Reader and the SeriesReader: fetch, then decode.
func readDeltaChunksFrom(ctx context.Context, pool *engine.Pool, h *adios.Handle, codec compress.Codec, tb tileBox, level int, wantChunks []int, out []float64, have []bool, decompress *engine.Counter) error {
	tiles, err := fetchDeltaChunks(h, tb, level, wantChunks)
	if err != nil {
		return err
	}
	return tiles.decodeInto(ctx, pool, h, codec, out, have, decompress)
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
// sees contiguous range requests instead of one operation per tile.
func fetchDeltaChunks(h *adios.Handle, tb tileBox, level int, wantChunks []int) (*deltaTiles, error) {
	chunks := wantChunks
	if chunks == nil {
		chunks = make([]int, tb.n*tb.n)
		for i := range chunks {
			chunks[i] = i
		}
	}
	var vars []bp.VarInfo
	var present []int
	for _, ci := range chunks {
		v, ok := h.InqVar(chunkVarName(ci), level)
		if !ok {
			if wantChunks != nil {
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
// the same pool.
func (dt *deltaTiles) decodeInto(ctx context.Context, pool *engine.Pool, h *adios.Handle, codec compress.Codec, out []float64, have []bool, decompress *engine.Counter) error {
	level, present, payloads := dt.level, dt.present, dt.payloads
	dspan := obs.FromContext(ctx).Child("core.decompress")
	dspan.SetAttrInt("tiles", len(present))
	defer dspan.End()
	// Tile-level and chunk-level parallelism compete for the same pool;
	// route the pool to whichever axis has the fan-out.
	var innerPool *engine.Pool
	workers := 1
	if pool != nil {
		workers = pool.Workers()
	}
	if len(present) < workers {
		innerPool = pool
	}
	// The decoded-tile cache (when the IO has one attached) serves repeat
	// decodes of the same tile across requests; hits skip the bit-plane
	// decode but never the byte fetch above, so modeled cost stays
	// deterministic. Cached slices are shared and read-only — the scatter
	// below only copies out of vals, never writes into it — and cache
	// misses decode into a fresh slice (not the pooled scratch, whose
	// backing array is reused).
	tc := h.TileCache()
	key := h.Key()
	var tileHits, tileMisses atomic.Int64
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
			var vals []float64
			if tc != nil {
				var hit bool
				vals, hit, err = tc.GetOrDecode(key, level, ci, func() ([]float64, error) {
					return compress.ChunkedDecodeInto(ctx, innerPool, codec, nil, enc)
				})
				if hit {
					tileHits.Add(1)
				} else {
					tileMisses.Add(1)
				}
			} else {
				vals, err = compress.ChunkedDecodeInto(ctx, innerPool, codec, scratch.vals[:0], enc)
				if err == nil && cap(vals) > cap(scratch.vals) {
					scratch.vals = vals[:0]
				}
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
	elapsed := time.Since(t0).Seconds()
	decompress.Add(elapsed)
	metricDecompressSeconds.Add(elapsed)
	// Folded here — the same elapsed the caller's Timings receive through
	// decompress — so CostReport and PhaseTimings agree without a second
	// fold at the call sites. Tile-cache attribution folds at the same
	// site: one AddTileCache per decode pass.
	req := obs.RequestFrom(ctx)
	req.AddDecompress(elapsed)
	req.AddTileCache(tileHits.Load(), tileMisses.Load())
	return err
}

// tileFrame parses the tiling frame recorded in a level container.
func (r *Reader) tileFrame(h *adios.Handle) (tileBox, error) {
	s, ok := h.BP.Attr("tile-frame")
	if !ok {
		return tileBox{}, fmt.Errorf("canopus: container missing tile-frame attribute")
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
	data, err := compress.Raw{}.Decode(raw)
	if err != nil {
		return nil, err
	}
	v := &View{Level: 0, Mesh: m, Data: data}
	v.Timings.addHandleIO(ctx, h)
	return v, nil
}

// ReadRaw retrieves the WriteRaw baseline product in one (cold) shot.
func ReadRaw(ctx context.Context, aio *adios.IO, name string) (*View, error) {
	r, err := OpenRawReader(aio, name)
	if err != nil {
		return nil, err
	}
	return r.Retrieve(ctx)
}
