package core

import (
	"context"
	"fmt"
	"strconv"

	"repro/internal/adios"
	"repro/internal/bp"
	"repro/internal/compress"
	"repro/internal/decimate"
	"repro/internal/delta"
	"repro/internal/engine"
	"repro/internal/mesh"
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
// step it runs the same write step as Write over a cascade built once: each
// level's delta and compression run on the engine pool (Options.Workers)
// beside the restriction chain; placement stays serial, base first.
type SeriesWriter struct {
	aio  *adios.IO
	name string
	opts Options

	// c holds the estimator and codec; the codec's bound, tol, is fixed at
	// construction from the field range so every step encodes with it.
	c            *cascade
	tol          float64
	restrictions []decimate.Restriction

	steps     int
	hierBytes int64

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
		aio: aio, name: name, opts: opts, tol: tol,
		c:             newCascade(m, opts, est, codec, false),
		maxDelta:      make([]float64, opts.Levels-1),
		levelBytesMax: make([]int64, opts.Levels),
	}
	// Build the hierarchy once. Decimation uses the geometry-only
	// default priority, so a zero field yields the canonical collapse
	// sequence and its restriction operators; the mappings are built beside.
	zeros := make([]float64, m.NumVerts())
	err = sw.c.chain(ctx, &PhaseTimings{}, func(ctx context.Context, l int) error {
		cur := sw.c.levels[l].mesh
		res, err := decimate.DecimateParallel(ctx, sw.c.pool, cur, zeros[:cur.NumVerts()],
			decimate.TargetForRatio(cur.NumVerts(), opts.RatioPerLevel),
			decimate.Options{TrackRestriction: true})
		if err != nil {
			return fmt.Errorf("decimate level %d: %w", l, err)
		}
		sw.c.levels[l+1].mesh = res.Coarse
		sw.restrictions = append(sw.restrictions, res.Restriction)
		return nil
	}, sw.c.mapLevel)
	if err != nil {
		return nil, wrapStep(err, "canopus: series")
	}

	// Store the shared hierarchy: every level's mesh, mapping and tile
	// frame.
	for l, lv := range sw.c.levels {
		products := []engine.Product{meshProduct(l, lv.mesh)}
		if l < opts.Levels-1 {
			mp, err := mappingProduct(l, lv.mapping)
			if err != nil {
				return nil, err
			}
			products = append(products, mp)
		}
		w, err := assembleContainer(products, map[string]string{"tile-frame": newTileBox(lv.mesh, opts.Chunks).encode()})
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
	w.SetAttr("codec", sw.c.codec.Name())
	w.SetAttr("tolerance", strconv.FormatFloat(sw.tol, 'g', -1, 64))
	w.SetAttr("estimator", sw.c.est.Name())
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

// HierarchyBytes reports the one-time shared hierarchy storage.
func (sw *SeriesWriter) HierarchyBytes() int64 { return sw.hierBytes }

// WriteStep refactors and stores one timestep's field. Steps must be
// written with len(data) == the mesh vertex count; step indices are
// assigned sequentially. WriteStep is not itself concurrent-safe (steps are
// ordered); within a step, independent levels compress concurrently.
func (sw *SeriesWriter) WriteStep(ctx context.Context, data []float64) (*SeriesReport, error) {
	if n := sw.c.levels[0].mesh.NumVerts(); len(data) != n {
		return nil, fmt.Errorf("canopus: step data length %d != vertex count %d", len(data), n)
	}
	rep, err := sw.writeStep(ctx, data)
	if err != nil {
		return nil, wrapStep(err, "canopus: step "+strconv.Itoa(sw.steps))
	}
	sw.steps++
	if err := sw.writeMeta(ctx); err != nil {
		return nil, err
	}
	return rep, nil
}

// writeStep runs the write step for step sw.steps: the coarse fields come
// from the cached restrictions in place of decimation.
func (sw *SeriesWriter) writeStep(ctx context.Context, data []float64) (*SeriesReport, error) {
	rep := &SeriesReport{Step: sw.steps}
	if sw.steps == 0 {
		rep.HierarchyBytes = sw.hierBytes
	}

	// Coarse fields via the cached restrictions, in place of decimation,
	// each level's unit beside the chain.
	c := sw.c
	c.levels[0].data = data
	if err := c.chain(ctx, &rep.Timings, func(ctx context.Context, l int) error {
		var err error
		c.levels[l+1].data, err = sw.restrictions[l].ApplyParallel(ctx, c.pool, c.levels[l].data, c.levels[l+1].data)
		return err
	}, c.unit); err != nil {
		return nil, err
	}

	key := func(l int) string { return stepKey(sw.name, sw.steps, l) }
	if _, err := c.placeLevels(ctx, sw.aio, key, &rep.Timings); err != nil {
		return nil, err
	}
	// Fold this step's exact delta maxima and stored sizes into the
	// campaign-wide planner inputs.
	for l, lv := range c.levels {
		rep.PayloadBytes += lv.storedBytes
		sw.levelBytesMax[l] = max(sw.levelBytesMax[l], lv.storedBytes)
		if l < len(sw.maxDelta) && lv.maxDelta > sw.maxDelta[l] {
			sw.maxDelta[l] = lv.maxDelta
		}
	}
	return rep, nil
}

// SeriesReader retrieves campaign timesteps progressively, sharing one
// cached mesh hierarchy across every step. It is safe for concurrent use:
// goroutines may retrieve different (or the same) steps in parallel.
type SeriesReader struct {
	*archive
	steps int
}

// OpenSeriesReader loads a campaign's metadata.
func OpenSeriesReader(ctx context.Context, aio *adios.IO, name string) (*SeriesReader, error) {
	a, attr, err := openArchive(ctx, aio, name, true)
	if err != nil {
		return nil, err
	}
	stepsStr, err := attr("steps")
	if err != nil {
		return nil, err
	}
	steps, err := strconv.Atoi(stepsStr)
	if err != nil || steps < 0 {
		return nil, fmt.Errorf("canopus: bad steps attribute %q", stepsStr)
	}
	return &SeriesReader{archive: a, steps: steps}, nil
}

// Steps reports the number of stored timesteps.
func (sr *SeriesReader) Steps() int { return sr.steps }

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
	return sr.runPlan(ctx, step, func(p *plan.Planner) (*plan.Plan, error) { return p.ForLevel(targetLevel) })
}

// RetrieveStepToTolerance restores one timestep to the cheapest accuracy
// whose campaign-wide recorded bound meets eps, stopping refinement early
// exactly like Reader.RetrieveToTolerance. Campaigns written before bound
// recording fall back to a conservative full-accuracy plan.
func (sr *SeriesReader) RetrieveStepToTolerance(ctx context.Context, step int, eps float64) (*View, error) {
	if step < 0 || step >= sr.steps {
		return nil, fmt.Errorf("canopus: step %d out of range [0,%d)", step, sr.steps)
	}
	return sr.runPlan(ctx, step, func(p *plan.Planner) (*plan.Plan, error) { return p.ForTolerance(eps) })
}

// HierarchyCost reports the accumulated one-time cost of loading the shared
// mesh hierarchy in this reader.
func (sr *SeriesReader) HierarchyCost() storage.Cost {
	sr.mu.RLock()
	defer sr.mu.RUnlock()
	return sr.hierCost
}
