package core

import (
	"context"
	"fmt"
	"math"
	"strconv"
	"sync/atomic"
	"time"

	"repro/internal/adios"
	"repro/internal/bp"
	"repro/internal/compress"
	"repro/internal/decimate"
	"repro/internal/delta"
	"repro/internal/engine"
	"repro/internal/mesh"
	"repro/internal/obs"
	"repro/internal/plan"
	"repro/internal/storage"
)

// PhaseTimings breaks the write (or read) path into the phases the paper's
// evaluation reports (Fig. 6b, Fig. 9–11). Compute phases are measured in
// real wall time on the host; I/O phases are simulated by the storage cost
// model, so experiment output is machine-independent on the I/O side.
//
// On the write path DecimateSeconds is the wall time of the chain's steps,
// and DeltaSeconds and CompressSeconds are the summed busy time of the level
// units, which run beside the chain and each other: the three need not sum
// to the write's wall time, and can exceed it. The read-path compute phases
// (decompress, restore) add each pass's wall time, folded once per pass by
// the view's goroutine (fold). Simulated I/O cost is derived from byte
// totals and stays deterministic regardless of worker count.
type PhaseTimings struct {
	// DecimateSeconds covers mesh decimation, or a step's restrictions.
	DecimateSeconds float64
	// DeltaSeconds covers mappings and delta calculation (write path).
	DeltaSeconds float64
	// CompressSeconds covers compression and geometry encoding (write path).
	CompressSeconds float64
	// DecompressSeconds covers decompression (read path).
	DecompressSeconds float64
	// RestoreSeconds covers Algorithm 3 restoration (read path).
	RestoreSeconds float64
	// IOSeconds is simulated storage time; IOBytes the modeled bytes the
	// cost model charged (the container extents touched).
	IOSeconds float64
	IOBytes   int64
	// IORealBytes is the bytes actually moved out of the storage backend
	// on the read path: modeled extents plus coalescing gaps and page-fill
	// rounding, minus page-cache hits. Before the ranged-read refactor
	// every open moved the whole container regardless of IOBytes; now the
	// two track each other within footer/index overhead.
	IORealBytes int64
}

// Add accumulates another timing set.
func (t *PhaseTimings) Add(o PhaseTimings) {
	t.DecimateSeconds += o.DecimateSeconds
	t.DeltaSeconds += o.DeltaSeconds
	t.CompressSeconds += o.CompressSeconds
	t.DecompressSeconds += o.DecompressSeconds
	t.RestoreSeconds += o.RestoreSeconds
	t.IOSeconds += o.IOSeconds
	t.IOBytes += o.IOBytes
	t.IORealBytes += o.IORealBytes
}

// fold adds one read-path cost d to both of its ledgers: t, the view's
// timings, and the request carried by ctx, whose CostReport therefore agrees
// with the view's PhaseTimings by construction. It is the only place either
// ledger learns a read cost. Each measurement is folded exactly once, by the
// goroutine that owns the view: PhaseTimings fields are plain, while the
// request's accumulators are atomic.
func (t *PhaseTimings) fold(ctx context.Context, d PhaseTimings) {
	t.Add(d)
	req := obs.RequestFrom(ctx)
	req.AddIO(d.IOBytes, d.IORealBytes, d.IOSeconds)
	req.AddDecompress(d.DecompressSeconds)
	req.AddRestore(d.RestoreSeconds)
}

// addHandleIO folds an open handle's accumulated I/O (simulated cost plus
// real backend traffic) into the read-path ledgers, and its page-cache
// counts into the request.
func (t *PhaseTimings) addHandleIO(ctx context.Context, h *adios.Handle) {
	c := h.Cost()
	t.fold(ctx, PhaseTimings{IOSeconds: c.Seconds, IOBytes: c.Bytes, IORealBytes: h.RealBytes()})
	obs.RequestFrom(ctx).AddCache(h.CacheStats())
}

// WriteReport summarizes one refactor-and-store pass.
type WriteReport struct {
	Name   string
	Mode   Mode
	Levels int
	Codec  string
	// Tolerance is the absolute codec error bound used.
	Tolerance float64
	Timings   PhaseTimings
	// Placements records where each product landed, base first.
	Placements []storage.Placement
	// LevelBytes is the stored container size per level product (index
	// l matches accuracy level l; the base is index Levels-1).
	LevelBytes []int64
	// PayloadBytes is the compressed data/delta payload per level,
	// excluding mesh geometry and mapping metadata — the quantity the
	// paper's Fig. 5 compares between Canopus and direct compression.
	PayloadBytes []int64
	// VertexCounts per level, finest first.
	VertexCounts []int
	// RawBytes is the uncompressed input data size.
	RawBytes int64
	// Bounds is the composed absolute error bound per level (index l =
	// accuracy level l) recorded for the retrieval planner: what a view
	// restored to that level deviates from the full-accuracy field by, at
	// most (plan.ComposeBounds; DESIGN.md §11).
	Bounds []float64
}

// StoredBytes sums all stored product sizes.
func (r *WriteReport) StoredBytes() int64 {
	var s int64
	for _, b := range r.LevelBytes {
		s += b
	}
	return s
}

// cascade is the level state a writer runs over, and how it stores each
// level. Both writers run the write step on it, and differ only in where the
// coarse fields come from: Write decimates, a SeriesWriter applies cached
// restrictions. Write builds a cascade per call; a SeriesWriter builds one at
// construction and reuses it for every step.
type cascade struct {
	levels []cascadeLevel
	// opts.Mode decides whether the levels above the base store delta
	// tiles; in direct mode a delta only calibrates the bounds, untimed.
	opts  Options
	pool  *engine.Pool
	est   delta.Estimator
	codec compress.Codec
	// standalone marks a single write's containers: they hold the level's
	// mesh, and on a tiled level its mapping and tile frame, and tag each
	// tile with the codec. A campaign step's geometry is in its hierarchy.
	standalone bool
	// deltaNs and compressNs sum the current pass's unit busy time.
	deltaNs, compressNs atomic.Int64
}

// cascadeLevel is one rung of a cascade.
type cascadeLevel struct {
	mesh *mesh.Mesh
	// mapping maps the level's vertices onto the next coarser level's
	// triangles; nil on the base, and until the level's unit first needs it.
	mapping delta.Mapping
	// frame, tiles and headers are the level's tile frame, its vertex ids
	// per tile and their encoded chunkHeaders, computed when the level is
	// first stored as tiles: they depend only on the mesh.
	frame   tileBox
	tiles   [][]int32
	headers [][]byte
	// delta and gather are the level unit's delta and tile buffers, reused
	// across tiles and steps.
	delta  []float64
	gather []float64

	// The current pass's field and what it made of it: geometry, the
	// payload products then the mapping, and the bytes stored.
	data         []float64
	geometry     engine.Product
	products     []engine.Product
	payloadBytes int64
	maxDelta     float64
	storedBytes  int64
}

func newCascade(m *mesh.Mesh, opts Options, est delta.Estimator, codec compress.Codec, standalone bool) *cascade {
	c := &cascade{levels: make([]cascadeLevel, opts.Levels), opts: opts, pool: engine.NewPool(opts.Workers),
		est: est, codec: codec, standalone: standalone}
	c.levels[0].mesh = m
	return c
}

// chain drives every writer's levels: on the calling goroutine next(ctx, l)
// makes level l+1 from level l, while the pool runs a single write's
// geometry of level l once it exists and unit(l) once level l+1 does too (a
// one-worker pool runs them inline, in that order). A failing unit stops the
// chain; every started unit is joined before chain returns. It times into t.
func (c *cascade) chain(ctx context.Context, t *PhaseTimings, next, unit func(ctx context.Context, l int) error) error {
	c.deltaNs.Store(0)
	c.compressNs.Store(0)
	units := c.pool.Batch()
	geometry := func(l int) {
		if c.standalone {
			units.Go(ctx, func(context.Context) error {
				t0 := time.Now()
				c.levels[l].geometry = meshProduct(l, c.levels[l].mesh)
				c.compressNs.Add(int64(time.Since(t0)))
				return nil
			})
		}
	}
	geometry(0)
	var err error
	n := len(c.levels)
	for l := 0; l < n-1 && err == nil && !units.Failed(); l++ {
		t0 := time.Now()
		if err = ctx.Err(); err == nil {
			err = next(ctx, l)
		}
		t.DecimateSeconds += time.Since(t0).Seconds()
		if err == nil {
			geometry(l + 1)
			units.Go(ctx, func(ctx context.Context) error { return unit(ctx, l) })
		}
	}
	if err == nil {
		units.Go(ctx, func(ctx context.Context) error { return unit(ctx, n-1) })
	}
	if uerr := units.Wait(); uerr != nil {
		err = uerr
	}
	t.DeltaSeconds = time.Duration(c.deltaNs.Load()).Seconds()
	t.CompressSeconds = time.Duration(c.compressNs.Load()).Seconds()
	return err
}

// mapLevel builds level l's vertex→coarse-triangle mapping, unless the
// level is the base or has one.
func (c *cascade) mapLevel(_ context.Context, l int) error {
	lv := &c.levels[l]
	if l == len(c.levels)-1 || lv.mapping != nil {
		return nil
	}
	mp, err := delta.Build(lv.mesh, c.levels[l+1].mesh)
	if err != nil {
		return fmt.Errorf("mapping level %d: %w", l, err)
	}
	lv.mapping = mp
	return nil
}

// unit is level l's share of the write step: above the base, its mapping and
// delta^(l-(l+1)) (Algorithm 2); then its payload, the delta as spatial tiles
// (each its own variable, so regional retrieval fetches only the tiles it
// needs) or the field whole on the base and in direct mode.
func (c *cascade) unit(ctx context.Context, l int) error {
	lv := &c.levels[l]
	t := time.Now()
	if l < len(c.levels)-1 {
		if err := c.mapLevel(ctx, l); err != nil {
			return err
		}
		coarse := &c.levels[l+1]
		d, err := delta.ComputeInto(ctx, c.pool, lv.mesh, lv.data, coarse.mesh, coarse.data, lv.mapping, c.est, lv.delta)
		if err != nil {
			return fmt.Errorf("delta level %d: %w", l, err)
		}
		lv.delta = d
		if c.opts.Mode == ModeDelta {
			c.deltaNs.Add(int64(time.Since(t)))
		}
		lv.maxDelta = maxAbs(d)
		t = time.Now()
	}
	lv.products, lv.payloadBytes = lv.products[:0], 0
	if c.opts.Mode != ModeDelta || l == len(c.levels)-1 {
		enc, err := encodeChunked(ctx, c.pool, c.codec, lv.data, c.opts.CodecChunk)
		if err != nil {
			return fmt.Errorf("compress level %d: %w", l, err)
		}
		lv.products = append(lv.products, engine.Product{
			Level: l, Kind: engine.KindData, Codec: c.codec.Name(), Payload: enc,
		})
		lv.payloadBytes = int64(len(enc))
	} else {
		if lv.tiles == nil {
			lv.frame = newTileBox(lv.mesh, c.opts.Chunks)
			lv.tiles = partitionVerts(lv.mesh, lv.frame)
			lv.headers = make([][]byte, len(lv.tiles))
			for ci, ids := range lv.tiles {
				lv.headers[ci] = chunkHeader(ids)
			}
		}
		var tileCodec string
		if c.standalone {
			tileCodec = c.codec.Name()
		}
		for ci, ids := range lv.tiles {
			if len(ids) == 0 {
				continue
			}
			lv.gather = gatherTile(lv.gather, lv.delta, ids)
			enc, err := encodeChunked(ctx, c.pool, c.codec, lv.gather, c.opts.CodecChunk)
			if err != nil {
				return fmt.Errorf("compress delta %d chunk %d: %w", l, ci, err)
			}
			payload := chunkPayload(lv.headers[ci], enc)
			lv.products = append(lv.products, engine.Product{
				Level: l, Kind: engine.KindDelta, Chunk: ci, Codec: tileCodec, Payload: payload,
			})
			lv.payloadBytes += int64(len(payload))
		}
		if c.standalone {
			mp, err := mappingProduct(l, lv.mapping)
			if err != nil {
				return err
			}
			lv.products = append(lv.products, mp)
		}
	}
	c.compressNs.Add(int64(time.Since(t)))
	return nil
}

// placeLevels assembles each level's container in canonical product order,
// so the stored bytes do not depend on the worker count, and stores it under
// key(l), base to the fastest tier first (§III-D): serially, since that order
// decides which containers claim fast-tier capacity. The modeled I/O is
// added to t; the placements come back base first.
func (c *cascade) placeLevels(ctx context.Context, aio *adios.IO, key func(l int) string, t *PhaseTimings) ([]storage.Placement, error) {
	n := len(c.levels)
	placements := make([]storage.Placement, 0, n)
	for l := n - 1; l >= 0; l-- {
		lv := &c.levels[l]
		products := lv.products
		var attrs map[string]string
		if c.standalone {
			products = append([]engine.Product{lv.geometry}, products...)
			if c.opts.Mode == ModeDelta && l < n-1 {
				attrs = map[string]string{"tile-frame": lv.frame.encode()}
			}
		}
		w, err := assembleContainer(products, attrs)
		if err != nil {
			return nil, err
		}
		p, err := aio.WriteContainer(ctx, key(l), w, tierFor(l, n, aio.H.NumTiers()))
		if err != nil {
			unplace(aio, placements)
			return nil, fmt.Errorf("store level %d: %w", l, err)
		}
		t.IOSeconds += p.Cost.Seconds
		t.IOBytes += p.Cost.Bytes
		lv.storedBytes = p.Cost.Bytes
		placements = append(placements, p)
	}
	return placements, nil
}

// unplace deletes what a failed write stored, best effort: the write's own
// error is the one to report.
func unplace(aio *adios.IO, placed []storage.Placement) {
	for _, p := range placed {
		_ = aio.H.Delete(p.Key)
	}
}

// wrapStep prefixes an error from the write step with the write it failed
// in. A bare cancellation passes through unwrapped, as the pool reports it.
func wrapStep(err error, prefix string) error {
	if err == context.Canceled || err == context.DeadlineExceeded {
		return err
	}
	return fmt.Errorf("%s: %w", prefix, err)
}

// maxAbs is the exact L-infinity magnitude of a delta, measured before
// compression — the write-side input to the planner's bound composition.
func maxAbs(vals []float64) float64 {
	var m float64
	for _, v := range vals {
		if a := math.Abs(v); a > m {
			m = a
		}
	}
	return m
}

// encodeChunked routes a product payload through the chunked container
// (compress.ChunkedEncode) unless codecChunk is negative, which selects a
// plain v1 codec stream. Values that fit in a single chunk come out as v1
// either way, so the setting only matters for large products.
func encodeChunked(ctx context.Context, pool *engine.Pool, c compress.Codec, vals []float64, codecChunk int) ([]byte, error) {
	if codecChunk < 0 {
		return c.Encode(vals)
	}
	return compress.ChunkedEncode(ctx, pool, c, vals, codecChunk)
}

// Write refactors ds per opts and stores the products through aio. It is
// the write half of the Canopus workflow (Fig. 1, left of the pyramid): the
// decimation chain makes each level from the previous while the worker pool
// maps, deltas and compresses every level whose coarser neighbour exists,
// then placement runs base first (tier preference is order-sensitive,
// §III-D). Cancelling ctx aborts between units and mid-I/O.
func Write(ctx context.Context, aio *adios.IO, ds *Dataset, opts Options) (*WriteReport, error) {
	opts = opts.withDefaults()
	if err := opts.validate(); err != nil {
		return nil, err
	}
	if err := ds.Validate(); err != nil {
		return nil, err
	}
	ctx, span := obs.StartSpan(ctx, "core.write")
	span.SetAttr("name", ds.Name)
	span.SetAttr("mode", opts.Mode.String())
	span.SetAttrInt("levels", opts.Levels)
	defer span.End()
	t0 := time.Now()
	defer func() {
		obs.ObserveLatency(metricWriteSeconds, span, time.Since(t0).Seconds())
	}()
	est, err := delta.EstimatorByName(opts.Estimator)
	if err != nil {
		return nil, err
	}
	codec, tol, err := opts.codecFor(ds.Data)
	if err != nil {
		return nil, err
	}

	rep := &WriteReport{
		Name:      ds.Name,
		Mode:      opts.Mode,
		Levels:    opts.Levels,
		Codec:     codec.Name(),
		Tolerance: tol,
		RawBytes:  ds.RawBytes(),
	}

	c := newCascade(ds.Mesh, opts, est, codec, true)
	c.levels[0].data = ds.Data

	// The decimation chain (Algorithm 1 per level), each level's unit beside
	// it. Direct mode stores no deltas; it measures them only to calibrate
	// the bounds, below.
	err = c.chain(ctx, &rep.Timings, func(ctx context.Context, l int) error {
		fine := &c.levels[l]
		res, err := decimate.DecimateParallel(ctx, c.pool, fine.mesh, fine.data, decimate.TargetForRatio(fine.mesh.NumVerts(), opts.RatioPerLevel), decimate.Options{})
		if err != nil {
			return fmt.Errorf("decimate level %d: %w", l, err)
		}
		c.levels[l+1].mesh, c.levels[l+1].data = res.Coarse, res.Data
		return nil
	}, c.unit)
	if err != nil {
		return nil, wrapStep(err, "canopus")
	}

	// Bound calibration for the retrieval planner: compose the per-level
	// error bounds the tolerance planner selects against from the exact
	// per-level delta maxima.
	var maxDeltas []float64
	for _, lv := range c.levels[:opts.Levels-1] {
		maxDeltas = append(maxDeltas, lv.maxDelta)
	}
	if rep.Bounds, err = plan.ComposeBounds(planMode(opts.Mode), opts.Levels, tol, maxDeltas); err != nil {
		return nil, err
	}

	key := func(l int) string { return levelKey(ds.Name, l) }
	if rep.Placements, err = c.placeLevels(ctx, aio, key, &rep.Timings); err != nil {
		return nil, wrapStep(err, "canopus")
	}
	for _, lv := range c.levels {
		rep.LevelBytes = append(rep.LevelBytes, lv.storedBytes)
		rep.PayloadBytes = append(rep.PayloadBytes, lv.payloadBytes)
		rep.VertexCounts = append(rep.VertexCounts, lv.mesh.NumVerts())
	}

	// Global metadata container on the fastest tier.
	metaW := bp.NewWriter()
	metaW.SetAttr("name", ds.Name)
	metaW.SetAttr("mode", opts.Mode.String())
	metaW.SetAttr("levels", strconv.Itoa(opts.Levels))
	metaW.SetAttr("codec", codec.Name())
	metaW.SetAttr("tolerance", strconv.FormatFloat(tol, 'g', -1, 64))
	metaW.SetAttr("estimator", est.Name())
	metaW.SetAttr("raw-bytes", strconv.FormatInt(rep.RawBytes, 10))
	for l, n := range rep.VertexCounts {
		metaW.SetAttr(fmt.Sprintf("verts-L%d", l), strconv.Itoa(n))
	}
	setPlanAttrs(metaW, rep.Bounds, rep.LevelBytes)
	mp, err := aio.WriteContainer(ctx, metaKey(ds.Name), metaW, 0)
	if err != nil {
		unplace(aio, rep.Placements)
		return nil, fmt.Errorf("canopus: store metadata: %w", err)
	}
	rep.Timings.IOSeconds += mp.Cost.Seconds
	rep.Timings.IOBytes += mp.Cost.Bytes
	return rep, nil
}

// WriteRaw stores ds unrefactored and uncompressed on the slowest tier —
// the "None" baseline in Fig. 9–11: full-accuracy analysis with no Canopus.
func WriteRaw(ctx context.Context, aio *adios.IO, ds *Dataset) (*WriteReport, error) {
	if err := ds.Validate(); err != nil {
		return nil, err
	}
	w := bp.NewWriter()
	w.SetAttr("name", ds.Name)
	w.SetAttr("mode", "raw")
	if err := w.PutBytes("mesh", 0, mesh.Encode(ds.Mesh), nil); err != nil {
		return nil, err
	}
	enc, err := compress.Raw{}.Encode(ds.Data)
	if err != nil {
		return nil, err
	}
	if err := w.PutBytes("data", 0, enc, map[string]string{"codec": "raw"}); err != nil {
		return nil, err
	}
	p, err := aio.WriteContainer(ctx, rawKey(ds.Name), w, aio.H.NumTiers()-1)
	if err != nil {
		return nil, err
	}
	return &WriteReport{
		Name:       ds.Name,
		Levels:     1,
		Codec:      "raw",
		RawBytes:   ds.RawBytes(),
		LevelBytes: []int64{p.Cost.Bytes},
		Placements: []storage.Placement{p},
		Timings: PhaseTimings{
			IOSeconds: p.Cost.Seconds,
			IOBytes:   p.Cost.Bytes,
		},
		VertexCounts: []int{ds.Mesh.NumVerts()},
	}, nil
}
