package core

import (
	"context"
	"fmt"
	"strconv"
	"sync"
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

// Time-series (campaign) refactoring. The paper's applications write a
// static mesh once and a field per timestep ("XGC1 rarely writes its full
// particle information to disk … more frequently, the simulation outputs a
// smaller data volume", §II-A; the evaluation refactors per-step dpot
// planes). A SeriesWriter exploits that: the mesh hierarchy, the
// vertex→triangle mappings, and the decimation *restriction operators* are
// computed once and stored once; every subsequent timestep only derives its
// coarse fields through the cached restrictions, computes deltas, and
// writes compressed payloads. Storage and write time per step drop to the
// payload alone.
//
// Key layout:
//
//	<name>/series-meta    campaign metadata (fast tier)
//	<name>/hier-L<l>      shared mesh + mapping + tile frame per level
//	<name>/s<step>-L<l>   per-step payload (base data or delta tiles)

func seriesMetaKey(name string) string { return name + "/series-meta" }
func hierKey(name string, l int) string {
	return fmt.Sprintf("%s/hier-L%d", name, l)
}
func stepKey(name string, step, l int) string {
	return fmt.Sprintf("%s/s%d-L%d", name, step, l)
}

// SeriesWriter refactors a campaign of timesteps over one static mesh. Per
// step, delta calculation and per-level compression fan out on the engine
// pool (Options.Workers); placement stays serial, base first.
type SeriesWriter struct {
	aio  *adios.IO
	name string
	opts Options
	est  delta.Estimator
	pool *engine.Pool

	meshes       []*mesh.Mesh
	restrictions []decimate.Restriction
	mappings     []delta.Mapping
	tiles        []tileBox
	tilesIDs     [][][]int32 // per level, per tile, vertex ids

	steps     int
	hierBytes int64
	// tol is fixed at construction from the caller-declared field range
	// so every step encodes with one bound.
	tol   float64
	codec compress.Codec

	// maxDelta[l] is the running max|delta^(l<-(l+1))| over every step
	// written so far, and levelBytesMax[l] the largest stored container per
	// level — the campaign-wide planner inputs. A bound composed from the
	// running maxima is conservative for each individual step, so tolerance
	// plans stay valid for any step a reader picks.
	maxDelta      []float64
	levelBytesMax []int64
}

// SeriesReport summarizes one WriteStep.
type SeriesReport struct {
	Step    int
	Timings PhaseTimings
	// PayloadBytes is the stored bytes for this step (payload containers
	// only; the shared hierarchy is accounted once in HierarchyBytes).
	PayloadBytes int64
	// HierarchyBytes is the one-time shared hierarchy cost (nonzero only
	// on the report of NewSeriesWriter's internal setup, surfaced here
	// for step 0).
	HierarchyBytes int64
}

// NewSeriesWriter prepares a campaign writer for fields over m.
// fieldRange is the expected |max-min| of the fields (used with
// opts.RelTolerance to fix the codec's absolute error bound for the whole
// campaign); it must be positive for lossy codecs.
func NewSeriesWriter(ctx context.Context, aio *adios.IO, name string, m *mesh.Mesh, fieldRange float64, opts Options) (*SeriesWriter, error) {
	opts = opts.withDefaults()
	if err := opts.validate(); err != nil {
		return nil, err
	}
	if opts.Mode != ModeDelta {
		return nil, fmt.Errorf("canopus: series writer supports delta mode only")
	}
	if name == "" {
		return nil, fmt.Errorf("canopus: series needs a name")
	}
	if err := m.Validate(); err != nil {
		return nil, err
	}
	if !(fieldRange > 0) {
		return nil, fmt.Errorf("canopus: fieldRange %g must be positive", fieldRange)
	}
	est, err := delta.EstimatorByName(opts.Estimator)
	if err != nil {
		return nil, err
	}
	tol := opts.RelTolerance * fieldRange
	codec, err := compress.New(opts.Codec, tol)
	if err != nil {
		return nil, err
	}

	sw := &SeriesWriter{
		aio: aio, name: name, opts: opts, est: est, tol: tol, codec: codec,
		pool:          engine.NewPool(opts.Workers),
		meshes:        []*mesh.Mesh{m},
		maxDelta:      make([]float64, opts.Levels-1),
		levelBytesMax: make([]int64, opts.Levels),
	}
	// Build the hierarchy once. Decimation uses the geometry-only
	// default priority, so a zero field yields the canonical collapse
	// sequence and its restriction operators.
	zeros := make([]float64, m.NumVerts())
	for l := 0; l < opts.Levels-1; l++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		cur := sw.meshes[l]
		res, err := decimate.Decimate(cur, zeros[:cur.NumVerts()],
			decimate.TargetForRatio(cur.NumVerts(), opts.RatioPerLevel),
			decimate.Options{TrackRestriction: true})
		if err != nil {
			return nil, fmt.Errorf("canopus: series decimate level %d: %w", l, err)
		}
		sw.meshes = append(sw.meshes, res.Coarse)
		sw.restrictions = append(sw.restrictions, res.Restriction)
		mp, err := delta.Build(cur, res.Coarse)
		if err != nil {
			return nil, fmt.Errorf("canopus: series mapping level %d: %w", l, err)
		}
		sw.mappings = append(sw.mappings, mp)
	}
	for l, lm := range sw.meshes {
		tb := newTileBox(lm, opts.Chunks)
		sw.tiles = append(sw.tiles, tb)
		if l < opts.Levels-1 {
			sw.tilesIDs = append(sw.tilesIDs, partitionVerts(lm, tb))
		} else {
			sw.tilesIDs = append(sw.tilesIDs, nil)
		}
	}

	// Store the shared hierarchy.
	for l, lm := range sw.meshes {
		products := []engine.Product{meshProduct(l, lm)}
		if l < opts.Levels-1 {
			mp, err := mappingProduct(l, sw.mappings[l])
			if err != nil {
				return nil, err
			}
			products = append(products, mp)
		}
		w, err := assembleContainer(products, map[string]string{"tile-frame": sw.tiles[l].encode()})
		if err != nil {
			return nil, err
		}
		p, err := aio.WriteContainer(ctx, hierKey(name, l), w, tierFor(l, opts.Levels, aio.H.NumTiers()))
		if err != nil {
			return nil, fmt.Errorf("canopus: store hierarchy level %d: %w", l, err)
		}
		sw.hierBytes += p.Cost.Bytes
	}
	if err := sw.writeMeta(ctx); err != nil {
		return nil, err
	}
	return sw, nil
}

func (sw *SeriesWriter) writeMeta(ctx context.Context) error {
	w := bp.NewWriter()
	w.SetAttr("name", sw.name)
	w.SetAttr("levels", strconv.Itoa(sw.opts.Levels))
	w.SetAttr("codec", sw.codec.Name())
	w.SetAttr("tolerance", strconv.FormatFloat(sw.tol, 'g', -1, 64))
	w.SetAttr("estimator", sw.est.Name())
	w.SetAttr("steps", strconv.Itoa(sw.steps))
	if sw.steps > 0 {
		// Planner inputs, campaign-wide: bounds composed from the running
		// delta maxima, sizes from the per-level container maxima.
		bounds, err := plan.ComposeBounds(plan.Progressive, sw.opts.Levels, sw.tol, sw.maxDelta)
		if err != nil {
			return err
		}
		setPlanAttrs(w, bounds, sw.levelBytesMax)
	}
	if _, err := sw.aio.WriteContainer(ctx, seriesMetaKey(sw.name), w, 0); err != nil {
		return fmt.Errorf("canopus: store series metadata: %w", err)
	}
	return nil
}

// Levels reports the campaign's level count.
func (sw *SeriesWriter) Levels() int { return sw.opts.Levels }

// HierarchyBytes reports the one-time shared hierarchy storage.
func (sw *SeriesWriter) HierarchyBytes() int64 { return sw.hierBytes }

// WriteStep refactors and stores one timestep's field. Steps must be
// written with len(data) == the mesh vertex count; step indices are
// assigned sequentially. WriteStep is not itself concurrent-safe (steps are
// ordered); within a step, independent levels compress concurrently.
func (sw *SeriesWriter) WriteStep(ctx context.Context, data []float64) (*SeriesReport, error) {
	if len(data) != sw.meshes[0].NumVerts() {
		return nil, fmt.Errorf("canopus: step data length %d != vertex count %d",
			len(data), sw.meshes[0].NumVerts())
	}
	rep := &SeriesReport{Step: sw.steps}
	if sw.steps == 0 {
		rep.HierarchyBytes = sw.hierBytes
	}

	// Coarse fields via the cached restrictions (replaces decimation).
	// Each level restricts from the previous, so the chain is sequential.
	t0 := time.Now()
	levelData := make([][]float64, sw.opts.Levels)
	levelData[0] = data
	for l := 0; l < sw.opts.Levels-1; l++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		ld, err := sw.restrictions[l].ApplyParallel(ctx, sw.pool, levelData[l], nil)
		if err != nil {
			return nil, err
		}
		levelData[l+1] = ld
	}
	rep.Timings.DecimateSeconds = time.Since(t0).Seconds()

	// Deltas via the cached mappings, one pool unit per level.
	t0 = time.Now()
	deltas := make([][]float64, sw.opts.Levels-1)
	deltaUnits := make([]engine.Unit, 0, sw.opts.Levels-1)
	for l := 0; l < sw.opts.Levels-1; l++ {
		l := l
		deltaUnits = append(deltaUnits, func(ctx context.Context) error {
			d, err := delta.ComputeInto(ctx, sw.pool, sw.meshes[l], levelData[l], sw.meshes[l+1], levelData[l+1], sw.mappings[l], sw.est, nil)
			if err != nil {
				return fmt.Errorf("canopus: step %d delta %d: %w", sw.steps, l, err)
			}
			deltas[l] = d
			return nil
		})
	}
	if err := sw.pool.Run(ctx, deltaUnits...); err != nil {
		return nil, err
	}
	rep.Timings.DeltaSeconds = time.Since(t0).Seconds()

	// Fold this step's exact delta maxima into the campaign-wide planner
	// bounds (untimed: planner bookkeeping, not a paper phase).
	for l, d := range deltas {
		if m := maxAbs(d); m > sw.maxDelta[l] {
			sw.maxDelta[l] = m
		}
	}

	// Compress payload containers, one pool unit per level. Step
	// containers carry payloads only (the hierarchy container has the
	// mesh, mapping, and tile frame), in canonical product order.
	t0 = time.Now()
	containers := make([]*bp.Writer, sw.opts.Levels)
	compressUnits := make([]engine.Unit, 0, sw.opts.Levels)
	for l := 0; l < sw.opts.Levels; l++ {
		l := l
		compressUnits = append(compressUnits, func(ctx context.Context) error {
			var products []engine.Product
			if l == sw.opts.Levels-1 {
				enc, err := encodeChunked(ctx, sw.pool, sw.codec, levelData[l], sw.opts.CodecChunk)
				if err != nil {
					return fmt.Errorf("canopus: step %d compress base: %w", sw.steps, err)
				}
				products = append(products, engine.Product{
					Level: l, Kind: engine.KindData, Codec: sw.codec.Name(), Payload: enc,
				})
			} else {
				for ci, ids := range sw.tilesIDs[l] {
					if len(ids) == 0 {
						continue
					}
					sub := make([]float64, len(ids))
					for j, id := range ids {
						sub[j] = deltas[l][id]
					}
					enc, err := encodeChunked(ctx, sw.pool, sw.codec, sub, sw.opts.CodecChunk)
					if err != nil {
						return fmt.Errorf("canopus: step %d compress delta %d: %w", sw.steps, l, err)
					}
					products = append(products, engine.Product{
						Level: l, Kind: engine.KindDelta, Chunk: ci,
						Payload: encodeChunkPayload(ids, enc),
					})
				}
			}
			w, err := assembleContainer(products, nil)
			if err != nil {
				return err
			}
			containers[l] = w
			return nil
		})
	}
	if err := sw.pool.Run(ctx, compressUnits...); err != nil {
		return nil, err
	}
	rep.Timings.CompressSeconds = time.Since(t0).Seconds()

	// Place base first (§III-D ordering).
	numTiers := sw.aio.H.NumTiers()
	for l := sw.opts.Levels - 1; l >= 0; l-- {
		p, err := sw.aio.WriteContainer(ctx, stepKey(sw.name, sw.steps, l), containers[l], tierFor(l, sw.opts.Levels, numTiers))
		if err != nil {
			return nil, fmt.Errorf("canopus: store step %d level %d: %w", sw.steps, l, err)
		}
		rep.Timings.IOSeconds += p.Cost.Seconds
		rep.Timings.IOBytes += p.Cost.Bytes
		rep.PayloadBytes += p.Cost.Bytes
		if p.Cost.Bytes > sw.levelBytesMax[l] {
			sw.levelBytesMax[l] = p.Cost.Bytes
		}
	}

	sw.steps++
	if err := sw.writeMeta(ctx); err != nil {
		return nil, err
	}
	return rep, nil
}

// SeriesReader retrieves campaign timesteps progressively, sharing one
// cached mesh hierarchy across every step. It is safe for concurrent use:
// goroutines may retrieve different (or the same) steps in parallel.
type SeriesReader struct {
	aio       *adios.IO
	name      string
	levels    int
	steps     int
	codec     compress.Codec
	estimator delta.Estimator
	tolerance float64
	pool      *engine.Pool

	// bounds and levelBytes are the campaign-wide planner inputs recorded
	// by the writer; bounds[l] is -1 on campaigns written before bound
	// recording.
	bounds     []float64
	levelBytes []int64

	// degrade switches RetrieveStep to best-effort on delta failures
	// (see degrade.go). Guarded by mu.
	degrade bool

	mu       sync.Mutex // guards the hierarchy caches, hierCost and degrade
	meshes   map[int]*mesh.Mesh
	mappings map[int]delta.Mapping
	tiles    map[int]tileBox
	hierCost storage.Cost
	flight   engine.Group
}

// OpenSeriesReaderWith loads a campaign's metadata and applies the
// read-side options (currently only opts.Degrade).
func OpenSeriesReaderWith(ctx context.Context, aio *adios.IO, name string, opts Options) (*SeriesReader, error) {
	sr, err := OpenSeriesReader(ctx, aio, name)
	if err != nil {
		return nil, err
	}
	sr.SetDegrade(opts.Degrade)
	return sr, nil
}

// SetDegrade toggles graceful degradation on the series reader (see
// Options.Degrade). Safe to call concurrently with retrievals.
func (sr *SeriesReader) SetDegrade(on bool) {
	sr.mu.Lock()
	sr.degrade = on
	sr.mu.Unlock()
}

func (sr *SeriesReader) degradeOn() bool {
	sr.mu.Lock()
	defer sr.mu.Unlock()
	return sr.degrade
}

// OpenSeriesReader loads a campaign's metadata.
func OpenSeriesReader(ctx context.Context, aio *adios.IO, name string) (*SeriesReader, error) {
	h, err := aio.Open(ctx, seriesMetaKey(name), 1)
	if err != nil {
		return nil, fmt.Errorf("canopus: open series metadata for %q: %w", name, err)
	}
	attr := func(key string) (string, error) {
		v, ok := h.BP.Attr(key)
		if !ok {
			return "", fmt.Errorf("canopus: series metadata for %q missing %s", name, key)
		}
		return v, nil
	}
	levelsStr, err := attr("levels")
	if err != nil {
		return nil, err
	}
	levels, err := strconv.Atoi(levelsStr)
	if err != nil || levels < 1 {
		return nil, fmt.Errorf("canopus: bad levels attribute %q", levelsStr)
	}
	stepsStr, err := attr("steps")
	if err != nil {
		return nil, err
	}
	steps, err := strconv.Atoi(stepsStr)
	if err != nil || steps < 0 {
		return nil, fmt.Errorf("canopus: bad steps attribute %q", stepsStr)
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
	sr := &SeriesReader{
		aio: aio, name: name, levels: levels, steps: steps,
		codec: codec, estimator: est, tolerance: tol,
		pool:     engine.NewPool(0),
		meshes:   map[int]*mesh.Mesh{},
		mappings: map[int]delta.Mapping{},
		tiles:    map[int]tileBox{},
	}
	sr.bounds, sr.levelBytes = readPlanAttrs(h, levels)
	return sr, nil
}

// SetWorkers resizes the reader's worker pool (n <= 0 means NumCPU). It must
// not be called concurrently with retrievals.
func (sr *SeriesReader) SetWorkers(n int) { sr.pool = engine.NewPool(n) }

// Levels reports the level count; Steps the number of stored timesteps.
func (sr *SeriesReader) Levels() int { return sr.levels }

// Steps reports the number of stored timesteps.
func (sr *SeriesReader) Steps() int { return sr.steps }

// Tolerance reports the campaign's absolute codec error bound.
func (sr *SeriesReader) Tolerance() float64 { return sr.tolerance }

// hierLevel is one cached rung of the shared hierarchy.
type hierLevel struct {
	mesh    *mesh.Mesh
	mapping delta.Mapping
	tb      tileBox
}

// hier loads (and caches) the shared hierarchy pieces for one level,
// fetching each level at most once across concurrent retrievals.
func (sr *SeriesReader) hier(ctx context.Context, l int) (*mesh.Mesh, delta.Mapping, tileBox, error) {
	sr.mu.Lock()
	m, ok := sr.meshes[l]
	if ok {
		mp, tb := sr.mappings[l], sr.tiles[l]
		sr.mu.Unlock()
		return m, mp, tb, nil
	}
	sr.mu.Unlock()

	v, err := sr.flight.Do(fmt.Sprintf("hier/%d", l), func() (any, error) {
		sr.mu.Lock()
		if m, ok := sr.meshes[l]; ok {
			hl := &hierLevel{mesh: m, mapping: sr.mappings[l], tb: sr.tiles[l]}
			sr.mu.Unlock()
			return hl, nil
		}
		sr.mu.Unlock()

		h, err := sr.aio.Open(ctx, hierKey(sr.name, l), 1)
		if err != nil {
			return nil, err
		}
		tfStr, ok := h.BP.Attr("tile-frame")
		if !ok {
			return nil, fmt.Errorf("canopus: hierarchy level %d missing tile-frame", l)
		}
		tb, err := parseTileBox(tfStr)
		if err != nil {
			return nil, err
		}
		var (
			m  *mesh.Mesh
			mp delta.Mapping
		)
		units := []engine.Unit{
			func(ctx context.Context) (err error) { m, err = fetchMesh(ctx, sr.pool, h, l); return err },
		}
		if l < sr.levels-1 {
			units = append(units, func(context.Context) (err error) { mp, err = fetchMapping(h, l); return err })
		}
		if err := sr.pool.Run(ctx, units...); err != nil {
			return nil, err
		}
		sr.mu.Lock()
		sr.meshes[l] = m
		sr.mappings[l] = mp
		sr.tiles[l] = tb
		sr.hierCost.Add(h.Cost())
		sr.mu.Unlock()
		return &hierLevel{mesh: m, mapping: mp, tb: tb}, nil
	})
	if err != nil {
		return nil, nil, tileBox{}, err
	}
	hl := v.(*hierLevel)
	return hl.mesh, hl.mapping, hl.tb, nil
}

// RetrieveStep restores one timestep to the target level. The retrieval
// planner resolves the level into the base-plus-deltas fetch plan for the
// step's containers; RetrieveStep executes it. Cancelling ctx aborts
// mid-fetch.
func (sr *SeriesReader) RetrieveStep(ctx context.Context, step, targetLevel int) (*View, error) {
	if step < 0 || step >= sr.steps {
		return nil, fmt.Errorf("canopus: step %d out of range [0,%d)", step, sr.steps)
	}
	if targetLevel < 0 || targetLevel >= sr.levels {
		return nil, fmt.Errorf("canopus: level %d out of range [0,%d)", targetLevel, sr.levels)
	}
	p, err := sr.planner(step)
	if err != nil {
		return nil, err
	}
	pl, err := p.ForLevel(targetLevel)
	if err != nil {
		return nil, err
	}
	return sr.executeStep(ctx, step, pl)
}

// RetrieveStepToTolerance restores one timestep to the cheapest accuracy
// whose campaign-wide recorded bound meets eps, stopping refinement early
// exactly like Reader.RetrieveToTolerance. Campaigns written before bound
// recording fall back to a conservative full-accuracy plan.
func (sr *SeriesReader) RetrieveStepToTolerance(ctx context.Context, step int, eps float64) (*View, error) {
	if step < 0 || step >= sr.steps {
		return nil, fmt.Errorf("canopus: step %d out of range [0,%d)", step, sr.steps)
	}
	p, err := sr.planner(step)
	if err != nil {
		return nil, err
	}
	pl, err := p.ForTolerance(eps)
	if err != nil {
		return nil, err
	}
	metricToleranceRetrievals.Inc()
	ctx, req, owned := obs.BeginRequest(ctx, "core.retrieve_step")
	v, err := sr.executeStep(ctx, step, pl)
	if err != nil {
		return nil, err
	}
	finishTolerance(ctx, v, pl)
	finishView(v, req, owned, obs.FromContext(ctx), metricRetrieveStepSeconds)
	return v, nil
}

// executeStep walks a planner-produced plan over one step's containers:
// base fetch first, then each planned delta, keeping the last cleanly
// restored level on a degradable failure. All level selection lives in the
// plan.
func (sr *SeriesReader) executeStep(ctx context.Context, step int, pl *plan.Plan) (*View, error) {
	ctx, req, owned := obs.BeginRequest(ctx, "core.retrieve_step")
	ctx, span := obs.StartSpan(ctx, "core.retrieve_step")
	span.SetAttr("name", sr.name)
	span.SetAttrInt("step", step)
	span.SetAttrInt("target_level", pl.Target)
	defer span.End()
	metricSeriesSteps.Inc()
	base := sr.levels - 1
	baseMesh, _, _, err := sr.hier(ctx, base)
	if err != nil {
		return nil, err
	}
	h, err := sr.aio.Open(ctx, stepKey(sr.name, step, base), 1)
	if err != nil {
		return nil, err
	}
	p, err := fetchProduct(h, base, engine.KindData, 0)
	if err != nil {
		return nil, err
	}
	v := &View{Level: base, Mesh: baseMesh, ErrorBound: sr.boundAt(base)}
	v.Timings.addHandleIO(ctx, h)
	dspan := span.Child("core.decompress")
	t0 := time.Now()
	v.Data, err = decodeProduct(ctx, sr.pool, sr.codec, h, base, p.Payload)
	v.Timings.DecompressSeconds = time.Since(t0).Seconds()
	dspan.End()
	metricDecompressSeconds.Add(v.Timings.DecompressSeconds)
	obs.RequestFrom(ctx).AddDecompress(v.Timings.DecompressSeconds)
	if err != nil {
		return nil, fmt.Errorf("canopus: step %d decompress base: %w", step, err)
	}
	if len(v.Data) != baseMesh.NumVerts() {
		return nil, fmt.Errorf("canopus: step %d base data %d values for %d vertices",
			step, len(v.Data), baseMesh.NumVerts())
	}

	degrade := sr.degradeOn()
	for _, st := range pl.Steps[1:] {
		if err := sr.augmentStep(ctx, span, step, st.Level, v); err != nil {
			if degrade && degradable(err) {
				v.Degradation = newDegradation(pl.Target, v.Level, err, sr.boundAt(v.Level))
				countDegradation(ctx, v.Degradation)
				span.SetAttrInt("achieved_level", v.Level)
				span.SetAttr("degraded", "true")
				finishView(v, req, owned, span, metricRetrieveStepSeconds)
				return v, nil
			}
			return nil, err
		}
	}
	finishView(v, req, owned, span, metricRetrieveStepSeconds)
	return v, nil
}

// augmentStep refines a step view by one level: fetch the level's delta
// container for the step and restore against the already-held coarse data.
// The view is only mutated on success, so a failed refinement leaves it a
// complete, valid view of the coarser level — what degradation returns.
func (sr *SeriesReader) augmentStep(ctx context.Context, span *obs.Span, step, l int, v *View) error {
	fineMesh, mp, tb, err := sr.hier(ctx, l)
	if err != nil {
		return err
	}
	hs, err := sr.aio.Open(ctx, stepKey(sr.name, step, l), 1)
	if err != nil {
		return err
	}
	d := make([]float64, fineMesh.NumVerts())
	var decompress engine.Counter
	if err := readDeltaChunksFrom(ctx, sr.pool, hs, sr.codec, tb, l, nil, d, nil, &decompress); err != nil {
		return err
	}
	v.Timings.addHandleIO(ctx, hs)
	v.Timings.DecompressSeconds += decompress.Value()

	rspan := span.Child("core.restore")
	rspan.SetAttrInt("level", l)
	t0 := time.Now()
	// In-place parallel restore: the delta buffer becomes the step data.
	fineData, err := delta.RestoreInto(ctx, sr.pool, fineMesh, v.Mesh, v.Data, mp, d, sr.estimator, d)
	restoreSecs := time.Since(t0).Seconds()
	rspan.End()
	v.Timings.RestoreSeconds += restoreSecs
	metricRestoreSeconds.Add(restoreSecs)
	obs.RequestFrom(ctx).AddRestore(restoreSecs)
	if err != nil {
		return fmt.Errorf("canopus: step %d restore level %d: %w", step, l, err)
	}
	v.Level = l
	v.Mesh = fineMesh
	v.Data = fineData
	v.ErrorBound = sr.boundAt(l)
	return nil
}

// HierarchyCost reports the accumulated one-time cost of loading the shared
// mesh hierarchy in this reader.
func (sr *SeriesReader) HierarchyCost() storage.Cost {
	sr.mu.Lock()
	defer sr.mu.Unlock()
	return sr.hierCost
}
