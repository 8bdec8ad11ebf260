package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"repro/internal/adios"
	"repro/internal/compress"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/mesh"
	"repro/internal/sim"
)

// Fixed operation counts of the traced pass; --seconds still caps it. Every
// plainEvery-th operation of a traced pass runs without spans or probes: those
// are the untraced reference of harness.trace_overhead_pct, met under the
// same conditions as the traced ones.
const (
	tracedWrites = 8
	tracedSteps  = 256
	plainEvery   = 4
)

// checkLevels retrieves every level of a written dataset and checks its
// maximum error against the original field: coarse levels are prolonged to
// the finest mesh first, which is what their bound is stated against.
func checkLevels(ctx context.Context, res *result, aio *adios.IO, ds *core.Dataset) {
	rd, err := core.OpenReader(ctx, aio, ds.Name)
	if err != nil {
		res.fail("check %s: %v", ds.Name, err)
		return
	}
	for l := 0; l < rd.Levels(); l++ {
		v, err := rd.Retrieve(ctx, l)
		if err != nil {
			res.fail("check %s level %d: %v", ds.Name, l, err)
			continue
		}
		full := v.Data
		if l > 0 {
			if full, err = rd.ProlongToFinest(ctx, v); err != nil {
				res.fail("check %s prolong level %d: %v", ds.Name, l, err)
				continue
			}
		}
		if e := maxAbsDiff(full, ds.Data); !withinBound(e, v.ErrorBound) {
			res.fail("check %s level %d: max error %g exceeds bound %g", ds.Name, l, e, v.ErrorBound)
		}
	}
}

// firstView is what an analyst pays to see freshly written data at its
// coarsest level from a cold start: open the metadata, fetch and decode the
// base.
func firstView(ctx context.Context, aio *adios.IO, name string) (time.Duration, error) {
	t0 := time.Now()
	rd, err := core.OpenReader(ctx, aio, name)
	if err != nil {
		return 0, err
	}
	if _, err := rd.Base(ctx); err != nil {
		return 0, err
	}
	return time.Since(t0), nil
}

// runIngestSingle is the unamortised write path: every iteration refactors a
// whole field into a fresh two-tier store with one core.Write call.
func runIngestSingle(ctx context.Context, cfg config) (*result, error) {
	res := newResult("ingest_single")
	const nDatasets = 4
	datasets, setupS, err := repeatSetup(func() ([]*core.Dataset, error) {
		ds := make([]*core.Dataset, nDatasets)
		for i := range ds {
			ds[i] = sim.XGC1(cfg.plane2x(dataSeed(cfg.seed, i))).Dataset
			ds[i].Name = fmt.Sprintf("dpot-%d", i)
		}
		_, err := core.Write(ctx, newIO(), ds[0], writeOpts) // warm-up
		return ds, err
	})
	if err != nil {
		return nil, err
	}
	res.set("setup_s", setupS, setupRounds)

	if cfg.trace {
		return res, traceIngestSingle(ctx, cfg, res, datasets)
	}

	var (
		writes, views durations
		raw, stored   int64
		ioSeconds     float64
		hashes        = make([][32]byte, nDatasets)
		seen          = make([]bool, nDatasets)
		deadline      = time.Now().Add(cfg.duration())
	)
	for i := 0; time.Now().Before(deadline) || i < nDatasets; i++ {
		ds := datasets[i%nDatasets]
		aio := newIO()
		t0 := time.Now()
		rep, err := core.Write(ctx, aio, ds, writeOpts)
		dt := time.Since(t0)
		res.attempted++
		if err != nil {
			res.fail("write %s: %v", ds.Name, err)
			continue
		}
		writes = append(writes, dt)
		raw += rep.RawBytes
		stored += rep.StoredBytes()
		ioSeconds += rep.Timings.IOSeconds

		fv, err := firstView(ctx, aio, ds.Name)
		if err != nil {
			res.fail("first view %s: %v", ds.Name, err)
			continue
		}
		views = append(views, fv)

		// Untimed checks: the stored bytes of a dataset never change between
		// iterations, and the first write of each dataset reads back within
		// its recorded bounds at every level.
		sum, err := hashKeys(ctx, aio.H, aio.H.Keys())
		switch {
		case err != nil:
			res.fail("%v", err)
		case !seen[i%nDatasets]:
			seen[i%nDatasets], hashes[i%nDatasets] = true, sum
			checkLevels(ctx, res, aio, ds)
		case sum != hashes[i%nDatasets]:
			res.fail("write %s: stored bytes differ from the first iteration", ds.Name)
		}
	}
	if len(writes) == 0 {
		return res, nil
	}
	busy := writes.sum().Seconds()
	n := len(writes)
	res.set("ops_per_s", float64(n)/busy, n)
	res.set("payload_MBps", float64(raw)/1e6/busy, n)
	res.set("op_p50_ms", writes.quantileMs(0.5), n)
	res.set("op_p95_ms", writes.tailMs(0.95), n)
	res.set("first_view_p50_ms", views.quantileMs(0.5), len(views))
	res.set("storage_bytes_per_raw_byte", float64(stored)/float64(raw), n)
	res.set("modeled_io_ms_per_op", ioSeconds*1e3/float64(n), n)
	return res, nil
}

func traceIngestSingle(ctx context.Context, cfg config, res *result, datasets []*core.Dataset) error {
	var base runtime.MemStats
	runtime.ReadMemStats(&base)
	deadline := time.Now().Add(cfg.duration())

	tr := newTracer()
	p := &prober{tr: tr, pool: engine.NewPool(writeOpts.Workers)}
	var st writeStats
	ops := 0
	for i := 0; ops < tracedWrites && (ops < 2 || time.Now().Before(deadline)); i++ {
		ds := datasets[i%len(datasets)]
		if i%plainEvery == plainEvery-1 {
			t0 := time.Now()
			if _, err := core.Write(ctx, newIO(), ds, writeOpts); err != nil {
				return err
			}
			st.plain = append(st.plain, time.Since(t0))
			continue
		}
		var rep *core.WriteReport
		var err error
		m, b := memDelta(func() {
			id := tr.start("root", ops, 0)
			rep, err = core.Write(ctx, newIO(), ds, writeOpts)
			tr.end(id)
		})
		res.attempted++
		if err != nil {
			return err
		}
		st.add(rep.Timings, m, b)
		if p.codec, _, err = core.CodecFor(writeOpts, ds.Data); err != nil {
			return err
		}
		if err := p.probeWrite(ctx, ops, ds.Mesh, ds.Data); err != nil {
			return err
		}
		ops++
	}
	led := tr.ledger([]string{"decimate", "delta.build", "delta.compute", "compress.encode", "mesh.encode", "bp.assemble", "storage.put"})
	st.report(res, led, p, ops)
	res.set("delta.build_ms", led["delta.build"], ops)
	res.set("mesh.encode_ms", led["mesh.encode"], ops)
	res.set("decimate.verts_per_s", perSecond(p.decimateVerts, p.decimateNs), ops)
	res.set("decimate.allocs_per_vert", float64(p.decimateMallocs)/float64(max(1, p.decimateVerts)), ops)
	edges := len(datasets[0].Mesh.Edges())
	res.set("pq.push_pop_ns", pushPopNs(edges, cfg.seed), edges)
	runtimeMetrics(res, &base)
	return tr.write(cfg.tracePath(res.workload))
}

// writeStats accumulates what the traced passes of both write workloads
// share: the allocator's counters around the root calls, the phase times
// core reports for them, and the untraced reference durations.
type writeStats struct {
	mallocs, allocBytes       uint64
	decimate, delta, compress []float64 // ms, as core reports them
	plain                     durations
}

func (w *writeStats) add(t core.PhaseTimings, mallocs, allocBytes uint64) {
	w.mallocs, w.allocBytes = w.mallocs+mallocs, w.allocBytes+allocBytes
	w.decimate = append(w.decimate, t.DecimateSeconds*1e3)
	w.delta = append(w.delta, t.DeltaSeconds*1e3)
	w.compress = append(w.compress, t.CompressSeconds*1e3)
}

// report stores the ledger entries, layer rates and cross-checks both write
// workloads have.
func (w *writeStats) report(res *result, led map[string]float64, p *prober, ops int) {
	res.set("core.root_ms", led["root.total"], ops)
	res.set("core.op_self_ms", led["op_self"], ops)
	res.set("decimate.ms_per_op", led["decimate"], ops)
	res.set("delta.compute_ms", led["delta.compute"], ops)
	res.set("compress.encode_ms", led["compress.encode"], ops)
	res.set("bp.assemble_ms", led["bp.assemble"], ops)
	res.set("storage.put_ms", led["storage.put"], ops)
	res.set("delta.compute_MBps", perSecond(p.computeBytes, p.computeNs)/1e6, ops)
	res.set("compress.encode_MBps", perSecond(p.encodeRaw, p.encodeNs)/1e6, ops)
	res.set("compress.ratio", float64(p.encodeRaw)/float64(max(1, p.encodeOut)), ops)
	res.set("storage.put_MBps", perSecond(p.putBytes, p.putNs)/1e6, ops)
	res.set("core.reported_decimate_ms", median(w.decimate), ops)
	res.set("core.reported_delta_ms", median(w.delta), ops)
	res.set("core.reported_compress_ms", median(w.compress), ops)
	res.set("core.allocs_per_op", float64(w.mallocs)/float64(max(1, ops)), ops)
	res.set("core.alloc_MB_per_op", float64(w.allocBytes)/1e6/float64(max(1, ops)), ops)
	res.set("harness.trace_overhead_pct", overheadPct(led["root.total"], w.plain.quantileMs(0.5)), len(w.plain))
}

// campaign is the state ingest_campaign measures: a series writer over a
// static mesh, its hierarchy built and stored once.
type campaign struct {
	aio    *adios.IO
	sw     *core.SeriesWriter
	fields [][]float64
	rng    float64 // the declared field range, which fixes the codec tolerance
	mesh   *mesh.Mesh
}

const (
	campaignName   = "dpot"
	campaignFields = 16
	campaignKeep   = 32 // steps kept in the store; older ones are deleted, untimed
	campaignWarm   = 32
	viewEvery      = 8   // every 8th step also takes a first view and a hash
	checkEvery     = 256 // every 256th step is read back at every level
)

func buildCampaign(ctx context.Context, cfg config) (*campaign, error) {
	c := &campaign{aio: newIO()}
	seq := sim.XGC1Sequence(cfg.plane2x(dataSeed(cfg.seed, 0)), campaignFields)
	for _, s := range seq {
		c.fields = append(c.fields, s.Dataset.Data)
	}
	c.rng, c.mesh = fieldRange(c.fields...), seq[0].Dataset.Mesh
	var err error
	c.sw, err = core.NewSeriesWriter(ctx, c.aio, campaignName, c.mesh, c.rng, writeOpts)
	return c, err
}

// stepKeys are the storage keys of one campaign step, base first: the layout
// internal/core/series.go documents.
func stepKeys(step int) []string {
	keys := make([]string, writeOpts.Levels)
	for l := range keys {
		keys[l] = fmt.Sprintf("%s/s%d-L%d", campaignName, step, writeOpts.Levels-1-l)
	}
	return keys
}

// campaignFirstView opens the campaign cold and restores the given step at
// its coarsest level.
func campaignFirstView(ctx context.Context, aio *adios.IO, step int) (time.Duration, error) {
	t0 := time.Now()
	sr, err := core.OpenSeriesReader(ctx, aio, campaignName)
	if err != nil {
		return 0, err
	}
	if _, err := sr.RetrieveStep(ctx, step, sr.Levels()-1); err != nil {
		return 0, err
	}
	return time.Since(t0), nil
}

// checkStep reads one step back at every level. Full accuracy must match the
// field within its bound; coarser levels must restore to their mesh and carry
// a recorded bound (a series reader has no prolongation to compare through).
func checkStep(ctx context.Context, res *result, c *campaign, step int) {
	sr, err := core.OpenSeriesReader(ctx, c.aio, campaignName)
	if err != nil {
		res.fail("check step %d: %v", step, err)
		return
	}
	for l := 0; l < sr.Levels(); l++ {
		v, err := sr.RetrieveStep(ctx, step, l)
		switch {
		case err != nil:
			res.fail("check step %d level %d: %v", step, l, err)
		case len(v.Data) != v.Mesh.NumVerts() || v.ErrorBound < 0:
			res.fail("check step %d level %d: %d values for %d vertices, bound %g", step, l, len(v.Data), v.Mesh.NumVerts(), v.ErrorBound)
		case l == 0:
			if e := maxAbsDiff(v.Data, c.fields[step%campaignFields]); !withinBound(e, v.ErrorBound) {
				res.fail("check step %d: max error %g exceeds bound %g", step, e, v.ErrorBound)
			}
		}
	}
}

// runIngestCampaign is the paper's campaign case: the mesh hierarchy is built
// once (set-up), and every timed operation refactors one timestep through it.
func runIngestCampaign(ctx context.Context, cfg config) (*result, error) {
	res := newResult("ingest_campaign")
	c, setupS, err := repeatSetup(func() (*campaign, error) {
		c, err := buildCampaign(ctx, cfg)
		for i := 0; err == nil && i < campaignWarm; i++ {
			_, err = c.sw.WriteStep(ctx, c.fields[i%campaignFields])
		}
		return c, err
	})
	if err != nil {
		return nil, err
	}
	res.set("setup_s", setupS, setupRounds)
	if cfg.trace {
		return res, traceIngestCampaign(ctx, cfg, res, c)
	}

	var (
		steps, views durations
		raw, stored  int64
		ioSeconds    float64
		hashes       = map[int][32]byte{}
		rawStep      = int64(8 * len(c.fields[0]))
		deadline     = time.Now().Add(cfg.duration())
	)
	for i := campaignWarm; time.Now().Before(deadline); i++ {
		t0 := time.Now()
		rep, err := c.sw.WriteStep(ctx, c.fields[i%campaignFields])
		dt := time.Since(t0)
		res.attempted++
		if err != nil {
			res.fail("step %d: %v", i, err)
			continue
		}
		steps = append(steps, dt)
		raw += rawStep
		stored += rep.PayloadBytes
		ioSeconds += rep.Timings.IOSeconds

		// Everything below is untimed housekeeping and checking.
		if i%viewEvery == 0 {
			fv, err := campaignFirstView(ctx, c.aio, i)
			if err != nil {
				res.fail("first view of step %d: %v", i, err)
			} else {
				views = append(views, fv)
			}
			sum, err := hashKeys(ctx, c.aio.H, stepKeys(i))
			if prev, ok := hashes[i%campaignFields]; err != nil {
				res.fail("%v", err)
			} else if !ok {
				hashes[i%campaignFields] = sum
			} else if sum != prev {
				res.fail("step %d: stored bytes differ from an earlier step of the same field", i)
			}
		}
		if i%checkEvery == 0 {
			checkStep(ctx, res, c, i)
		}
		for _, k := range stepKeys(i - campaignKeep) {
			if err := c.aio.H.Delete(k); err != nil {
				res.fail("delete %s: %v", k, err)
			}
		}
	}
	if len(steps) == 0 {
		return res, nil
	}
	busy := steps.sum().Seconds()
	n := len(steps)
	res.set("ops_per_s", float64(n)/busy, n)
	res.set("payload_MBps", float64(raw)/1e6/busy, n)
	res.set("op_p50_ms", steps.quantileMs(0.5), n)
	res.set("op_p95_ms", steps.tailMs(0.95), n)
	res.set("first_view_p50_ms", views.quantileMs(0.5), len(views))
	res.set("storage_bytes_per_raw_byte", float64(stored)/float64(raw), n)
	res.set("modeled_io_ms_per_op", ioSeconds*1e3/float64(n), n)
	return res, nil
}

func traceIngestCampaign(ctx context.Context, cfg config, res *result, c *campaign) error {
	var base runtime.MemStats
	runtime.ReadMemStats(&base)
	deadline := time.Now().Add(cfg.duration())

	// The static hierarchy the step probes run over, built once from the
	// layers' public functions the way NewSeriesWriter builds its own.
	h, err := decimateCascade(c.mesh, make([]float64, c.mesh.NumVerts()), writeOpts.Levels, true)
	if err != nil {
		return err
	}
	tr := newTracer()
	p := &prober{tr: nil, pool: engine.NewPool(writeOpts.Workers)}
	if err := p.probeBuild(ctx, 0, 0, h); err != nil {
		return err
	}
	p.tr = tr
	if p.codec, err = compress.New("zfp", writeOpts.RelTolerance*c.rng); err != nil {
		return err
	}

	step := campaignWarm
	write := func(traced bool, op int) (time.Duration, *core.SeriesReport, error) {
		id := 0
		if traced {
			id = tr.start("root", op, 0)
		}
		t0 := time.Now()
		rep, err := c.sw.WriteStep(ctx, c.fields[step%campaignFields])
		dt := time.Since(t0)
		if traced {
			tr.end(id)
		}
		for _, k := range stepKeys(step - campaignKeep) {
			_ = c.aio.H.Delete(k) // the untraced pass counts a failed delete
		}
		step++
		return dt, rep, err
	}
	var st writeStats
	ops := 0
	for i := 0; ops < tracedSteps && (ops < 2 || time.Now().Before(deadline)); i++ {
		if i%plainEvery == plainEvery-1 {
			dt, _, err := write(false, 0)
			if err != nil {
				return err
			}
			st.plain = append(st.plain, dt)
			continue
		}
		field := c.fields[step%campaignFields]
		var rep *core.SeriesReport
		var err error
		m, b := memDelta(func() { _, rep, err = write(true, ops) })
		res.attempted++
		if err != nil {
			return err
		}
		st.add(rep.Timings, m, b)
		if err := p.probeStep(ctx, ops, h, field); err != nil {
			return err
		}
		ops++
	}
	led := tr.ledger([]string{"decimate", "delta.compute", "compress.encode", "bp.assemble", "storage.put"})
	st.report(res, led, p, ops)
	res.set("engine.unit_overhead_us", unitOverheadUs(ctx, p.pool), 8192)
	runtimeMetrics(res, &base)
	return tr.write(cfg.tracePath(res.workload))
}
