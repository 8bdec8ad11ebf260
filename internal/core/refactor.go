package core

import (
	"context"
	"fmt"
	"math"
	"strconv"
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
// Under concurrency the write-path phases (decimate, delta, compress)
// report the wall time of the whole phase — the elapsed time the phase
// occupied, which shrinks as workers overlap its units. The read-path
// compute phases (decompress, restore) likewise add each pass's wall time,
// folded once per pass by the view's goroutine (fold). Simulated I/O cost
// is derived from byte totals and stays deterministic regardless of worker
// count.
type PhaseTimings struct {
	// DecimateSeconds covers mesh decimation (write path).
	DecimateSeconds float64
	// DeltaSeconds covers delta calculation (write path).
	DeltaSeconds float64
	// CompressSeconds covers floating-point compression (write path).
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

// TotalSeconds sums every phase.
func (t PhaseTimings) TotalSeconds() float64 {
	return t.DecimateSeconds + t.DeltaSeconds + t.CompressSeconds +
		t.DecompressSeconds + t.RestoreSeconds + t.IOSeconds
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

// cascade is the level state the write step runs over. Both writers run the
// same three phases on it — deltas, encode, placeLevels — and differ only in
// where the coarse fields come from: Write decimates, a SeriesWriter applies
// cached restrictions. Write builds a cascade per call; a SeriesWriter
// builds one at construction and reuses it for every step.
type cascade struct {
	levels []cascadeLevel
	chunks int // tiles per axis of a delta level
}

// cascadeLevel is one rung of a cascade.
type cascadeLevel struct {
	mesh *mesh.Mesh
	// mapping maps the level's vertices onto the next coarser level's
	// triangles; nil on the base.
	mapping delta.Mapping
	// frame, tiles and headers are the level's tile frame, its vertex ids
	// per tile and their encoded chunkHeaders, computed when the level is
	// first stored as tiles: they depend only on the mesh.
	frame   tileBox
	tiles   [][]int32
	headers [][]byte
	// gather is the level's encode unit's tile buffer, reused across tiles
	// and steps.
	gather []float64
}

func newCascade(m *mesh.Mesh, levels, chunks int) *cascade {
	c := &cascade{levels: make([]cascadeLevel, levels), chunks: chunks}
	c.levels[0].mesh = m
	return c
}

// mapLevels builds every level's vertex→coarse-triangle mapping, one pool
// unit per level.
func (c *cascade) mapLevels(ctx context.Context, pool *engine.Pool) error {
	units := make([]engine.Unit, len(c.levels)-1)
	for l := range units {
		units[l] = func(context.Context) error {
			mp, err := delta.Build(c.levels[l].mesh, c.levels[l+1].mesh)
			if err != nil {
				return fmt.Errorf("mapping level %d: %w", l, err)
			}
			c.levels[l].mapping = mp
			return nil
		}
	}
	return pool.Run(ctx, units...)
}

// deltas computes delta^(l-(l+1)) from the level fields data through the
// mappings (Algorithm 2), one pool unit per level.
func (c *cascade) deltas(ctx context.Context, pool *engine.Pool, est delta.Estimator, data [][]float64) ([][]float64, error) {
	out := make([][]float64, len(c.levels)-1)
	units := make([]engine.Unit, len(out))
	for l := range units {
		units[l] = func(ctx context.Context) error {
			fine, coarse := &c.levels[l], &c.levels[l+1]
			d, err := delta.ComputeInto(ctx, pool, fine.mesh, data[l], coarse.mesh, data[l+1], fine.mapping, est, nil)
			if err != nil {
				return fmt.Errorf("delta level %d: %w", l, err)
			}
			out[l] = d
			return nil
		}
	}
	if err := pool.Run(ctx, units...); err != nil {
		return nil, err
	}
	return out, nil
}

// encode compresses every level into its container, one pool unit per
// level; large payloads additionally fan out chunk-wise inside
// encodeChunked. Level l < len(deltas) stores deltas[l] as spatial tiles,
// each its own selectively-readable variable, so regional retrieval fetches
// only the tiles it needs; every other level stores data[l] whole (the
// base, or every level in direct mode). Each unit assembles its container
// in canonical product order, so the stored bytes do not depend on the
// worker count. A standalone container (a single write's) also holds the
// level's mesh, and on a tiled level its mapping and tile frame, and tags
// each tile with the codec; a campaign step's containers hold payloads
// only, their geometry stored once in the hierarchy. encode returns the
// containers and each level's payload bytes.
func (c *cascade) encode(ctx context.Context, pool *engine.Pool, codec compress.Codec, codecChunk int, data, deltas [][]float64, standalone bool) ([]*bp.Writer, []int64, error) {
	containers := make([]*bp.Writer, len(c.levels))
	payloadBytes := make([]int64, len(c.levels))
	units := make([]engine.Unit, len(c.levels))
	for l := range units {
		units[l] = func(ctx context.Context) error {
			lv := &c.levels[l]
			var products []engine.Product
			var attrs map[string]string
			var tileCodec string
			if standalone {
				products = append(products, meshProduct(l, lv.mesh))
				tileCodec = codec.Name()
			}
			if l >= len(deltas) {
				enc, err := encodeChunked(ctx, pool, codec, data[l], codecChunk)
				if err != nil {
					return fmt.Errorf("compress level %d: %w", l, err)
				}
				products = append(products, engine.Product{
					Level: l, Kind: engine.KindData, Codec: codec.Name(), Payload: enc,
				})
				payloadBytes[l] = int64(len(enc))
			} else {
				if lv.tiles == nil {
					lv.frame = newTileBox(lv.mesh, c.chunks)
					lv.tiles = partitionVerts(lv.mesh, lv.frame)
					lv.headers = make([][]byte, len(lv.tiles))
					for ci, ids := range lv.tiles {
						lv.headers[ci] = chunkHeader(ids)
					}
				}
				for ci, ids := range lv.tiles {
					if len(ids) == 0 {
						continue
					}
					lv.gather = gatherTile(lv.gather, deltas[l], ids)
					enc, err := encodeChunked(ctx, pool, codec, lv.gather, codecChunk)
					if err != nil {
						return fmt.Errorf("compress delta %d chunk %d: %w", l, ci, err)
					}
					payload := chunkPayload(lv.headers[ci], enc)
					products = append(products, engine.Product{
						Level: l, Kind: engine.KindDelta, Chunk: ci, Codec: tileCodec, Payload: payload,
					})
					payloadBytes[l] += int64(len(payload))
				}
				if standalone {
					mp, err := mappingProduct(l, lv.mapping)
					if err != nil {
						return err
					}
					products = append(products, mp)
					attrs = map[string]string{"tile-frame": lv.frame.encode()}
				}
			}
			w, err := assembleContainer(products, attrs)
			if err != nil {
				return err
			}
			containers[l] = w
			return nil
		}
	}
	if err := pool.Run(ctx, units...); err != nil {
		return nil, nil, err
	}
	return containers, payloadBytes, nil
}

// placeLevels stores each level's container under key(l), base to the
// fastest tier first, then finer levels toward slower tiers (§III-D).
// Placement order decides which containers claim fast-tier capacity, so it
// is serial. The modeled I/O is added to t; the placements come back base
// first.
func (c *cascade) placeLevels(ctx context.Context, aio *adios.IO, containers []*bp.Writer, key func(l int) string, t *PhaseTimings) ([]storage.Placement, error) {
	n := len(c.levels)
	placements := make([]storage.Placement, 0, n)
	for l := n - 1; l >= 0; l-- {
		p, err := aio.WriteContainer(ctx, key(l), containers[l], tierFor(l, n, aio.H.NumTiers()))
		if err != nil {
			return nil, fmt.Errorf("store level %d: %w", l, err)
		}
		t.IOSeconds += p.Cost.Seconds
		t.IOBytes += p.Cost.Bytes
		placements = append(placements, p)
	}
	return placements, nil
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
// decimation cascade runs first (each level depends on the previous), then
// the write step — delta calculation and per-level compression fanned out
// across the worker pool, then placement base first (tier preference is
// order-sensitive, §III-D). Cancelling ctx aborts between units and
// mid-I/O.
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

	pool := engine.NewPool(opts.Workers)
	c := newCascade(ds.Mesh, opts.Levels, opts.Chunks)
	data := make([][]float64, opts.Levels)
	data[0] = ds.Data

	// Decimation cascade (Algorithm 1 per level). Each level is decimated
	// from the previous, so the chain is sequential.
	phase := time.Now()
	for l := 0; l < opts.Levels-1; l++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		fine := c.levels[l].mesh
		res, err := decimate.Decimate(fine, data[l], decimate.TargetForRatio(fine.NumVerts(), opts.RatioPerLevel), decimate.Options{})
		if err != nil {
			return nil, fmt.Errorf("canopus: decimate level %d: %w", l, err)
		}
		c.levels[l+1].mesh, data[l+1] = res.Coarse, res.Data
	}
	rep.Timings.DecimateSeconds = time.Since(phase).Seconds()

	// Mappings and deltas (Algorithm 2). Direct mode stores no deltas; it
	// measures them only to calibrate bounds, below.
	levelDeltas := func() ([][]float64, error) {
		if err := c.mapLevels(ctx, pool); err != nil {
			return nil, err
		}
		return c.deltas(ctx, pool, est, data)
	}
	var deltas [][]float64
	if opts.Mode == ModeDelta {
		phase = time.Now()
		if deltas, err = levelDeltas(); err != nil {
			return nil, wrapStep(err, "canopus")
		}
		rep.Timings.DeltaSeconds = time.Since(phase).Seconds()
	}

	phase = time.Now()
	containers, payloadBytes, err := c.encode(ctx, pool, codec, opts.CodecChunk, data, deltas, true)
	if err != nil {
		return nil, wrapStep(err, "canopus")
	}
	rep.Timings.CompressSeconds = time.Since(phase).Seconds()
	rep.PayloadBytes = payloadBytes

	key := func(l int) string { return levelKey(ds.Name, l) }
	if rep.Placements, err = c.placeLevels(ctx, aio, containers, key, &rep.Timings); err != nil {
		return nil, wrapStep(err, "canopus")
	}
	rep.LevelBytes = make([]int64, opts.Levels)
	for i, p := range rep.Placements {
		rep.LevelBytes[opts.Levels-1-i] = p.Cost.Bytes
	}
	for _, lv := range c.levels {
		rep.VertexCounts = append(rep.VertexCounts, lv.mesh.NumVerts())
	}

	// Bound calibration for the retrieval planner: compose the per-level
	// error bounds the tolerance planner selects against from the exact
	// per-level delta maxima. Direct mode computes its deltas here, outside
	// the timed phases, so planner bookkeeping never skews the paper's
	// write-phase decomposition.
	if opts.Mode == ModeDirect {
		if deltas, err = levelDeltas(); err != nil {
			return nil, wrapStep(err, "canopus")
		}
	}
	maxDeltas := make([]float64, len(deltas))
	for l, d := range deltas {
		maxDeltas[l] = maxAbs(d)
	}
	rep.Bounds, err = plan.ComposeBounds(planMode(opts.Mode), opts.Levels, tol, maxDeltas)
	if err != nil {
		return nil, err
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
