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

// Core-phase metrics — the process-wide, race-safe (atomic) successors of
// the per-view PhaseTimings fields. Every accumulation into a PhaseTimings
// also feeds these, so a metrics snapshot carries the paper's per-phase
// decomposition without threading structs through callers. PhaseTimings
// keeps its public shape for per-retrieval reporting; these counters are the
// aggregate view.
var (
	metricWrites              = obs.NewCounter("canopus_core_writes_total")
	metricRetrievals          = obs.NewCounter("canopus_core_retrievals_total")
	metricToleranceRetrievals = obs.NewCounter("canopus_core_tolerance_retrievals_total")
	metricAugments            = obs.NewCounter("canopus_core_augments_total")
	metricRegionRetrievals    = obs.NewCounter("canopus_core_region_retrievals_total")
	metricSeriesSteps         = obs.NewCounter("canopus_core_series_steps_total")
	metricDecompressSeconds   = obs.NewFloatCounter("canopus_core_decompress_seconds_total")
	metricRestoreSeconds      = obs.NewFloatCounter("canopus_core_restore_seconds_total")
	metricIOSeconds           = obs.NewFloatCounter("canopus_core_io_seconds_total")
	metricIOModeledBytes      = obs.NewCounter("canopus_core_io_modeled_bytes_total")
	metricIORealBytes         = obs.NewCounter("canopus_core_io_real_bytes_total")
)

// PhaseTimings breaks the write (or read) path into the phases the paper's
// evaluation reports (Fig. 6b, Fig. 9–11). Compute phases are measured in
// real wall time on the host; I/O phases are simulated by the storage cost
// model, so experiment output is machine-independent on the I/O side.
//
// Under concurrency the write-path phases (decimate, delta, compress)
// report the wall time of the whole stage — the elapsed time the phase
// occupied, which shrinks as workers overlap its units. The read-path
// compute phases (decompress, restore) accumulate per-unit compute seconds
// through mutex-guarded adds; at one worker both conventions coincide with
// the old serial measurements. Simulated I/O cost is derived from byte
// totals and stays deterministic regardless of worker count.
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

// addHandleIO folds an open handle's accumulated I/O (simulated cost plus
// real backend traffic) into the read-path timings, and mirrors the totals
// into the process-wide obs counters and the request carried by ctx. Each
// handle must be folded exactly once, by the goroutine that owns the view:
// PhaseTimings fields are plain (its public shape predates the obs layer),
// so cross-goroutine accumulation belongs in the atomic counters, not here —
// see TestConcurrentTimingRace. Because the request folds at this same
// single-fold site, a CostReport's I/O totals agree with the view's
// PhaseTimings by construction.
func (t *PhaseTimings) addHandleIO(ctx context.Context, h *adios.Handle) {
	c := h.Cost()
	real := h.RealBytes()
	t.IOSeconds += c.Seconds
	t.IOBytes += c.Bytes
	t.IORealBytes += real
	metricIOSeconds.Add(c.Seconds)
	metricIOModeledBytes.Add(c.Bytes)
	metricIORealBytes.Add(real)
	if req := obs.RequestFrom(ctx); req != nil {
		req.AddIO(c.Bytes, real, c.Seconds)
		req.AddCache(h.CacheStats())
	}
}

// TotalSeconds sums every phase.
func (t PhaseTimings) TotalSeconds() float64 {
	return t.DecimateSeconds + t.DeltaSeconds + t.CompressSeconds +
		t.DecompressSeconds + t.RestoreSeconds + t.IOSeconds
}

// Stage names of the write pipeline (the read path is their inverse).
const (
	stageDecimate = "decimate"
	stageDelta    = "delta"
	stageCompress = "compress"
	stageStore    = "store"
)

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

// level is one rung of the refactoring cascade built in memory before
// placement.
type level struct {
	mesh    *mesh.Mesh
	data    []float64 // L^l, only kept transiently
	deltaTo []float64 // delta^(l-(l+1)); nil for the base level
	mapping delta.Mapping
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

// compressLevel encodes one level's artifacts into products: mesh geometry,
// plus either a whole-level data payload (base level, or every level in
// direct mode) or per-tile delta payloads and the vertex mapping. It is one
// compress-stage unit; levels compress independently and concurrently, and
// large payloads additionally fan out chunk-wise inside encodeChunked.
func compressLevel(ctx context.Context, pool *engine.Pool, lv *level, l int, isBase bool, mode Mode, codec compress.Codec, chunks, codecChunk int) ([]engine.Product, string, int64, error) {
	var products []engine.Product
	products = append(products, meshProduct(l, lv.mesh))

	var payloadBytes int64
	var tileFrame string
	switch {
	case mode == ModeDirect, isBase:
		enc, err := encodeChunked(ctx, pool, codec, lv.data, codecChunk)
		if err != nil {
			return nil, "", 0, fmt.Errorf("canopus: compress level %d: %w", l, err)
		}
		products = append(products, engine.Product{
			Level: l, Kind: engine.KindData, Codec: codec.Name(), Payload: enc,
		})
		payloadBytes = int64(len(enc))
	default:
		// Deltas are stored as spatial tiles, each its own
		// selectively-readable variable, so regional retrieval
		// can fetch only the tiles a zoomed-in analysis needs.
		tb := newTileBox(lv.mesh, chunks)
		tileFrame = tb.encode()
		var sub []float64
		for ci, ids := range partitionVerts(lv.mesh, tb) {
			if len(ids) == 0 {
				continue
			}
			sub = gatherTile(sub, lv.deltaTo, ids)
			enc, err := encodeChunked(ctx, pool, codec, sub, codecChunk)
			if err != nil {
				return nil, "", 0, fmt.Errorf("canopus: compress delta %d chunk %d: %w", l, ci, err)
			}
			payload := encodeChunkPayload(ids, enc)
			products = append(products, engine.Product{
				Level: l, Kind: engine.KindDelta, Chunk: ci, Codec: codec.Name(), Payload: payload,
			})
			payloadBytes += int64(len(payload))
		}
		mp, err := mappingProduct(l, lv.mapping)
		if err != nil {
			return nil, "", 0, err
		}
		products = append(products, mp)
	}
	return products, tileFrame, payloadBytes, nil
}

// Write refactors ds per opts and stores the products through aio. It is
// the write half of the Canopus workflow (Fig. 1, left of the pyramid),
// executed as an engine pipeline: the decimation cascade runs first (each
// level depends on the previous), then delta calculation and per-level
// compression fan out across the worker pool, then placement runs base
// first (tier preference is order-sensitive, §III-D). Cancelling ctx aborts
// the pipeline between units and mid-I/O.
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
	metricWrites.Inc()
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
	pipe := engine.NewPipeline(pool)
	levels := make([]*level, opts.Levels)
	levels[0] = &level{mesh: ds.Mesh, data: ds.Data}

	// Stage 1: decimation cascade (Algorithm 1 per level). Each level is
	// decimated from the previous, so the cascade is one sequential unit.
	pipe.AddStage(stageDecimate, func(ctx context.Context) error {
		for l := 0; l < opts.Levels-1; l++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			cur := levels[l]
			target := decimate.TargetForRatio(cur.mesh.NumVerts(), opts.RatioPerLevel)
			res, err := decimate.Decimate(cur.mesh, cur.data, target, decimate.Options{})
			if err != nil {
				return fmt.Errorf("canopus: decimate level %d: %w", l, err)
			}
			levels[l+1] = &level{mesh: res.Coarse, data: res.Data}
		}
		return nil
	})

	// Stage 2: delta calculation (Algorithm 2), delta mode only. Each
	// level's mapping and delta depend only on its own pair of meshes, so
	// levels fan out across the pool.
	if opts.Mode == ModeDelta {
		units := make([]engine.Unit, 0, opts.Levels-1)
		for l := 0; l < opts.Levels-1; l++ {
			l := l
			units = append(units, func(ctx context.Context) error {
				fine, coarse := levels[l], levels[l+1]
				mp, err := delta.Build(fine.mesh, coarse.mesh)
				if err != nil {
					return fmt.Errorf("canopus: mapping level %d: %w", l, err)
				}
				d, err := delta.ComputeInto(ctx, pool, fine.mesh, fine.data, coarse.mesh, coarse.data, mp, est, nil)
				if err != nil {
					return fmt.Errorf("canopus: delta level %d: %w", l, err)
				}
				fine.mapping = mp
				fine.deltaTo = d
				return nil
			})
		}
		pipe.AddStage(stageDelta, units...)
	}

	// Stage 3: compression and container assembly, one unit per level.
	// Containers are assembled in canonical product order, so the stored
	// bytes do not depend on the worker count.
	containers := make([]*bp.Writer, opts.Levels)
	rep.PayloadBytes = make([]int64, opts.Levels)
	compressUnits := make([]engine.Unit, 0, opts.Levels)
	for l := 0; l < opts.Levels; l++ {
		l := l
		compressUnits = append(compressUnits, func(ctx context.Context) error {
			products, tileFrame, payloadBytes, err := compressLevel(
				ctx, pool, levels[l], l, l == opts.Levels-1, opts.Mode, codec, opts.Chunks, opts.CodecChunk)
			if err != nil {
				return err
			}
			var attrs map[string]string
			if tileFrame != "" {
				attrs = map[string]string{"tile-frame": tileFrame}
			}
			w, err := assembleContainer(products, attrs)
			if err != nil {
				return err
			}
			containers[l] = w
			rep.PayloadBytes[l] = payloadBytes
			return nil
		})
	}
	pipe.AddStage(stageCompress, compressUnits...)

	// Stage 4: placement — base to the fastest tier first, then finer
	// deltas toward slower tiers (§III-D). Placement order decides which
	// products claim fast-tier capacity, so the stage is serial.
	numTiers := aio.H.NumTiers()
	storeUnits := make([]engine.Unit, 0, opts.Levels)
	for l := opts.Levels - 1; l >= 0; l-- {
		l := l
		storeUnits = append(storeUnits, func(ctx context.Context) error {
			pref := tierFor(l, opts.Levels, numTiers)
			p, err := aio.WriteContainer(ctx, levelKey(ds.Name, l), containers[l], pref)
			if err != nil {
				return fmt.Errorf("canopus: store level %d: %w", l, err)
			}
			rep.Placements = append(rep.Placements, p)
			rep.Timings.IOSeconds += p.Cost.Seconds
			rep.Timings.IOBytes += p.Cost.Bytes
			return nil
		})
	}
	pipe.AddSerialStage(stageStore, storeUnits...)

	if err := pipe.Run(ctx); err != nil {
		return nil, err
	}
	rep.Timings.DecimateSeconds = pipe.StageSeconds(stageDecimate)
	rep.Timings.DeltaSeconds = pipe.StageSeconds(stageDelta)
	rep.Timings.CompressSeconds = pipe.StageSeconds(stageCompress)
	for _, lv := range levels {
		rep.VertexCounts = append(rep.VertexCounts, lv.mesh.NumVerts())
	}
	// LevelBytes indexed by level.
	rep.LevelBytes = make([]int64, opts.Levels)
	for i, p := range rep.Placements {
		rep.LevelBytes[opts.Levels-1-i] = p.Cost.Bytes
	}

	// Bound calibration for the retrieval planner: measure the exact
	// per-level delta maxima and compose the per-level error bounds the
	// tolerance planner will select against. Delta mode reads the maxima
	// off the deltas the pipeline already computed; direct mode stores no
	// deltas, so it measures them transiently here. The measurement is
	// planner bookkeeping, deliberately outside the staged pipeline so it
	// never skews the paper's write-phase decomposition.
	maxDeltas := make([]float64, opts.Levels-1)
	for l := 0; l < opts.Levels-1; l++ {
		if opts.Mode == ModeDelta {
			maxDeltas[l] = maxAbs(levels[l].deltaTo)
			continue
		}
		mp, err := delta.Build(levels[l].mesh, levels[l+1].mesh)
		if err != nil {
			return nil, fmt.Errorf("canopus: bound mapping level %d: %w", l, err)
		}
		d, err := delta.ComputeInto(ctx, pool, levels[l].mesh, levels[l].data, levels[l+1].mesh, levels[l+1].data, mp, est, nil)
		if err != nil {
			return nil, fmt.Errorf("canopus: bound delta level %d: %w", l, err)
		}
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
