package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"time"

	"repro/internal/adios"
	"repro/internal/bp"
	"repro/internal/compress"
	"repro/internal/core"
	"repro/internal/delta"
	"repro/internal/engine"
	"repro/internal/mesh"
	"repro/internal/obs"
	"repro/internal/plan"
	"repro/internal/sim"
)

const (
	tracedSessions = 128
	probeEvery     = 16 // every 16th traced session also runs the read-side probes
	exploreWarm    = 3
)

// box is an axis-aligned region of interest.
type box struct{ minX, minY, maxX, maxY float64 }

// explorer is the state explore_cold measures: one dataset written once into
// a two-tier store with no page cache and no tile cache attached.
type explorer struct {
	aio *adios.IO
	ds  *core.Dataset
	rep *core.WriteReport
}

// sessionOut is what one analyst session produced and cost.
type sessionOut struct {
	first, full, total  time.Duration
	values              int64 // field values delivered across the session's views
	timings             core.PhaseTimings
	retries             int64
	tolBytes, fullBytes int64 // modeled bytes of the tolerance read and of the walk to full accuracy
}

func buildExplorer(ctx context.Context, cfg config) (*explorer, error) {
	e := &explorer{aio: newIO(), ds: sim.XGC1(cfg.plane2x(dataSeed(cfg.seed, 0))).Dataset}
	var err error
	e.rep, err = core.Write(ctx, e.aio, e.ds, writeOpts)
	return e, err
}

// regionBox draws a box covering a quarter of the mesh's bounding box.
func (e *explorer) regionBox(rng *rand.Rand) box {
	minX, minY, maxX, maxY := e.ds.Mesh.Bounds()
	w, h := (maxX-minX)/2, (maxY-minY)/2
	x, y := minX+rng.Float64()*w, minY+rng.Float64()*h
	return box{x, y, x + w, y + h}
}

// tolerance draws an error target just above the recorded bound of level 1 or
// 2, so the planner must stop short of full accuracy.
func (e *explorer) tolerance(rng *rand.Rand) float64 {
	return 1.01 * e.rep.Bounds[1+rng.Intn(2)]
}

// session is the paper's progressive-exploration loop run by a fresh analyst
// process: open, base view, augment to full accuracy, one focused regional
// read, one error-target read. Under a tracer the session is one root span
// and each public call a child span. Checks run after the clock stops.
func (e *explorer) session(ctx context.Context, res *result, tr *tracer, op int, b box, eps float64) (sessionOut, error) {
	var out sessionOut
	root := tr.start("root", op, 0)
	t0 := time.Now()

	id := tr.start("core.open_reader", op, root)
	rd, err := core.OpenReader(ctx, e.aio, e.ds.Name)
	tr.end(id)
	if err != nil {
		return out, err
	}
	id = tr.start("core.base", op, root)
	v, err := rd.Base(ctx)
	tr.end(id)
	if err != nil {
		return out, err
	}
	out.first = time.Since(t0)
	out.values = int64(len(v.Data))
	for v.Level > 0 {
		id = tr.start("core.augment", op, root)
		err = rd.Augment(ctx, v)
		tr.end(id)
		if err != nil {
			return out, err
		}
	}
	out.full = time.Since(t0)

	id = tr.start("core.region", op, root)
	rv, err := rd.RetrieveRegion(ctx, 0, b.minX, b.minY, b.maxX, b.maxY)
	tr.end(id)
	if err != nil {
		return out, err
	}
	id = tr.start("core.tolerance", op, root)
	tv, err := rd.RetrieveToTolerance(ctx, eps)
	tr.end(id)
	if err != nil {
		return out, err
	}
	out.total = time.Since(t0)
	tr.end(root)

	have := rv.CountHave()
	out.values += int64(len(v.Data) + have + len(tv.Data))
	out.timings = v.Timings
	out.timings.Add(rv.Timings)
	out.timings.Add(tv.Timings)
	out.fullBytes, out.tolBytes = v.Timings.IOBytes, tv.Timings.IOBytes
	for _, c := range []*obs.CostReport{rv.Cost, tv.Cost} {
		if c != nil {
			out.retries += c.Retries
		}
	}

	// Correctness, untimed.
	if d := maxAbsDiff(v.Data, e.ds.Data); !withinBound(d, v.ErrorBound) {
		res.fail("session %d: full view max error %g exceeds bound %g", op, d, v.ErrorBound)
	}
	if have == 0 {
		res.fail("session %d: region restored no vertex", op)
	}
	for i, ok := range rv.Have {
		if ok && math.Float64bits(rv.Data[i]) != math.Float64bits(v.Data[i]) {
			res.fail("session %d: region vertex %d differs from the full view", op, i)
			break
		}
	}
	if tv.ErrorBound < 0 || tv.ErrorBound > eps {
		res.fail("session %d: tolerance view bound %g misses target %g", op, tv.ErrorBound, eps)
	}
	return out, nil
}

// runExploreCold is the analyst's side of the trade: how long until a first
// view, until full accuracy, and how many whole sessions a second.
func runExploreCold(ctx context.Context, cfg config) (*result, error) {
	res := newResult("explore_cold")
	rng := rand.New(rand.NewSource(cfg.seed))
	e, setupS, err := repeatSetup(func() (*explorer, error) {
		e, err := buildExplorer(ctx, cfg)
		for i := 0; err == nil && i < exploreWarm; i++ {
			_, err = e.session(ctx, res, nil, -1, e.regionBox(rng), e.tolerance(rng))
		}
		return e, err
	})
	if err != nil {
		return nil, err
	}
	res.set("setup_s", setupS, setupRounds)
	if cfg.trace {
		return res, traceExploreCold(ctx, cfg, res, e, rng)
	}

	var first, full, total durations
	var values int64
	var tm core.PhaseTimings
	deadline := time.Now().Add(cfg.duration())
	for i := 0; time.Now().Before(deadline); i++ {
		out, err := e.session(ctx, res, nil, i, e.regionBox(rng), e.tolerance(rng))
		res.attempted++
		if err != nil {
			res.fail("session %d: %v", i, err)
			continue
		}
		first, full, total = append(first, out.first), append(full, out.full), append(total, out.total)
		values += out.values
		tm.Add(out.timings)
	}
	if len(total) == 0 {
		return res, nil
	}
	busy := total.sum().Seconds()
	n := len(total)
	res.set("ops_per_s", float64(n)/busy, n)
	res.set("payload_MBps", float64(8*values)/1e6/busy, n)
	res.set("op_p50_ms", full.quantileMs(0.5), n)
	res.set("op_p95_ms", full.tailMs(0.95), n)
	res.set("first_view_p50_ms", first.quantileMs(0.5), n)
	res.set("storage_bytes_per_raw_byte", float64(tm.IOBytes)/float64(8*values), n)
	res.set("modeled_io_ms_per_op", tm.IOSeconds*1e3/float64(n), n)
	return res, nil
}

// readInputs are what the read-side probes run over: the stored hierarchy
// walked once through the public reader, then taken apart again with the
// layers' public functions.
type readInputs struct {
	h       *hierarchy
	pieces  [][][]float64 // per level: the base field, or the delta tile by tile
	encoded [][][]byte
	meshes  [][]byte
	keys    []string // meta first, then level containers
	blobs   [][]byte // the stored containers behind keys
	codec   compress.Codec
	prods   []plan.Product
}

func (e *explorer) readInputs(ctx context.Context, pool *engine.Pool) (*readInputs, error) {
	in := &readInputs{h: &hierarchy{}}
	levels := writeOpts.Levels
	in.h.meshes = make([]*mesh.Mesh, levels)
	in.h.data = make([][]float64, levels)
	rd, err := core.OpenReader(ctx, e.aio, e.ds.Name)
	if err != nil {
		return nil, err
	}
	v, err := rd.Base(ctx)
	for err == nil {
		in.h.meshes[v.Level] = v.Mesh
		in.h.data[v.Level] = append([]float64(nil), v.Data...)
		if v.Level == 0 {
			break
		}
		err = rd.Augment(ctx, v)
	}
	if err != nil {
		return nil, err
	}
	p := &prober{pool: pool}
	if err := p.probeBuild(ctx, 0, 0, in.h); err != nil {
		return nil, err
	}
	if err := p.probeCompute(ctx, 0, 0, in.h); err != nil {
		return nil, err
	}
	if in.codec, _, err = core.CodecFor(writeOpts, e.ds.Data); err != nil {
		return nil, err
	}
	p.codec = in.codec
	if in.pieces, in.encoded, err = p.probeEncode(ctx, 0, 0, in.h); err != nil {
		return nil, err
	}
	for _, lm := range in.h.meshes {
		in.meshes = append(in.meshes, mesh.Encode(lm))
	}
	in.keys = []string{e.ds.Name + "/meta"}
	for l := 0; l < levels; l++ {
		in.keys = append(in.keys, fmt.Sprintf("%s/L%d", e.ds.Name, l))
	}
	for _, k := range in.keys {
		blob, _, err := e.aio.H.Get(ctx, k, 1)
		if err != nil {
			return nil, err
		}
		in.blobs = append(in.blobs, blob)
	}
	for l := 0; l < levels; l++ {
		t := e.aio.H.Tier(e.aio.H.Where(in.keys[1+l]))
		in.prods = append(in.prods, plan.Product{
			Level: l, Bound: e.rep.Bounds[l], Bytes: e.rep.LevelBytes[l],
			Tier: plan.Tier{Name: t.Name, LatencySeconds: t.LatencySeconds, ReadBandwidth: t.ReadBandwidth},
		})
	}
	return in, nil
}

// readTotals accumulate the read-side probes of one traced pass.
type readTotals struct {
	decodeBytes, decodeNs   int64
	restoreBytes, restoreNs int64
	getBytes, getNs         int64
	meshMs, bpUs, adiosUs   []float64
	levelUs, tolUs          []float64
}

// probeRead runs every read-side probe once, under a probe span of op.
func (e *explorer) probeRead(ctx context.Context, p *prober, op int, in *readInputs, eps float64, tot *readTotals) error {
	parent := p.tr.start("probe", op, 0)
	defer p.tr.end(parent)

	ns, err := p.timed("compress.decode", op, parent, func() error {
		for l := range in.encoded {
			for i, enc := range in.encoded[l] {
				if _, err := compress.ChunkedDecodeInto(ctx, p.pool, in.codec, nil, enc); err != nil {
					return err
				}
				tot.decodeBytes += int64(8 * len(in.pieces[l][i]))
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	tot.decodeNs += ns

	ns, err = p.timed("delta.restore", op, parent, func() error {
		for l := len(in.h.deltas) - 1; l >= 0; l-- {
			out, err := delta.RestoreInto(ctx, p.pool, in.h.meshes[l], in.h.meshes[l+1], in.h.data[l+1], in.h.mappings[l], in.h.deltas[l], estimator, nil)
			if err != nil {
				return err
			}
			tot.restoreBytes += int64(8 * len(out))
		}
		return nil
	})
	if err != nil {
		return err
	}
	tot.restoreNs += ns

	ns, err = p.timed("mesh.decode", op, parent, func() error {
		for _, blob := range in.meshes {
			if _, _, err := mesh.Decode(blob); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	tot.meshMs = append(tot.meshMs, float64(ns)/1e6)

	ns, err = p.timed("bp.open", op, parent, func() error {
		for _, blob := range in.blobs {
			if _, err := bp.OpenBytes(blob); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	tot.bpUs = append(tot.bpUs, float64(ns)/1e3/float64(len(in.blobs)))

	ns, err = p.timed("adios.open", op, parent, func() error {
		for _, k := range in.keys {
			if _, err := e.aio.Open(ctx, k, 1); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	tot.adiosUs = append(tot.adiosUs, float64(ns)/1e3/float64(len(in.keys)))

	ns, err = p.timed("storage.get", op, parent, func() error {
		for _, k := range in.keys {
			blob, _, err := e.aio.H.Get(ctx, k, 1)
			if err != nil {
				return err
			}
			tot.getBytes += int64(len(blob))
		}
		return nil
	})
	if err != nil {
		return err
	}
	tot.getNs += ns

	// A plan takes well under a microsecond, so each probe times a batch.
	const plans = 64
	planUs := func(name string, resolve func(*plan.Planner) error) (float64, error) {
		ns, err := p.timed(name, op, parent, func() error {
			for i := 0; i < plans; i++ {
				pl, err := plan.New(plan.Progressive, in.prods)
				if err == nil {
					err = resolve(pl)
				}
				if err != nil {
					return err
				}
			}
			return nil
		})
		return float64(ns) / 1e3 / plans, err
	}
	us, err := planUs("plan.for_level", func(pl *plan.Planner) error { _, err := pl.ForLevel(0); return err })
	if err != nil {
		return err
	}
	tot.levelUs = append(tot.levelUs, us)
	us, err = planUs("plan.for_tolerance", func(pl *plan.Planner) error { _, err := pl.ForTolerance(eps); return err })
	tot.tolUs = append(tot.tolUs, us)
	return err
}

// spanOverheadPct compares sessions under an obs.Trace root, which turns the
// library's own span recording on, with sessions under a plain context: pairs
// in alternating order, the median of the ratios.
func (e *explorer) spanOverheadPct(ctx context.Context, res *result, rng *rand.Rand, pairs int) (float64, error) {
	ratios := make([]float64, 0, pairs)
	for i := 0; i < pairs; i++ {
		b, eps := e.regionBox(rng), e.tolerance(rng)
		var plain, traced time.Duration
		for j := 0; j < 2; j++ {
			if (i+j)%2 == 0 {
				out, err := e.session(ctx, res, nil, -1, b, eps)
				if err != nil {
					return 0, err
				}
				plain = out.total
			} else {
				tctx, root := obs.Trace(ctx, "benchmark.session")
				out, err := e.session(tctx, res, nil, -1, b, eps)
				root.End()
				if err != nil {
					return 0, err
				}
				traced = out.total
			}
		}
		ratios = append(ratios, float64(traced)/float64(plain))
	}
	return 100 * (median(ratios) - 1), nil
}

func traceExploreCold(ctx context.Context, cfg config, res *result, e *explorer, rng *rand.Rand) error {
	var base runtime.MemStats
	runtime.ReadMemStats(&base)
	deadline := time.Now().Add(cfg.duration())
	pool := engine.NewPool(0)
	in, err := e.readInputs(ctx, pool)
	if err != nil {
		return err
	}

	tr := newTracer()
	p := &prober{tr: tr, pool: pool, codec: in.codec}
	var tot readTotals
	var mallocs, allocBytes uint64
	var tm core.PhaseTimings
	var retries, tolBytes, fullBytes int64
	var decompress, restore []float64
	var plain durations
	ops := 0
	for i := 0; ops < tracedSessions && (ops < 2 || time.Now().Before(deadline)); i++ {
		b, eps := e.regionBox(rng), e.tolerance(rng)
		if i%plainEvery == plainEvery-1 {
			out, err := e.session(ctx, res, nil, -1, b, eps)
			if err != nil {
				return err
			}
			plain = append(plain, out.total)
			continue
		}
		var out sessionOut
		var err error
		m, by := memDelta(func() { out, err = e.session(ctx, res, tr, ops, b, eps) })
		res.attempted++
		if err != nil {
			return err
		}
		mallocs, allocBytes = mallocs+m, allocBytes+by
		tm.Add(out.timings)
		retries += out.retries
		tolBytes, fullBytes = tolBytes+out.tolBytes, fullBytes+out.fullBytes
		decompress = append(decompress, out.timings.DecompressSeconds*1e3)
		restore = append(restore, out.timings.RestoreSeconds*1e3)
		if ops%probeEvery == 0 {
			if err := e.probeRead(ctx, p, ops, in, eps, &tot); err != nil {
				return err
			}
		}
		ops++
	}
	led := tr.ledger([]string{"core.open_reader", "core.base", "core.augment", "core.region", "core.tolerance"})
	res.set("core.root_ms", led["root.total"], ops)
	res.set("core.op_self_ms", led["op_self"], ops)
	res.set("core.open_reader_ms", led["core.open_reader"], ops)
	res.set("core.base_ms", led["core.base"], ops)
	res.set("core.augment_ms", led["core.augment"], ops)
	res.set("core.region_ms", led["core.region"], ops)
	res.set("core.tolerance_ms", led["core.tolerance"], ops)
	probes := len(tot.meshMs)
	res.set("delta.restore_MBps", perSecond(tot.restoreBytes, tot.restoreNs)/1e6, probes)
	res.set("compress.decode_MBps", perSecond(tot.decodeBytes, tot.decodeNs)/1e6, probes)
	res.set("storage.get_MBps", perSecond(tot.getBytes, tot.getNs)/1e6, probes)
	res.set("mesh.decode_ms", median(tot.meshMs), probes)
	res.set("bp.open_us", median(tot.bpUs), probes)
	res.set("adios.open_us", median(tot.adiosUs), probes)
	res.set("plan.for_level_us", median(tot.levelUs), probes)
	res.set("plan.for_tolerance_us", median(tot.tolUs), probes)
	res.set("plan.tolerance_bytes_ratio", float64(tolBytes)/float64(max(1, fullBytes)), ops)
	res.set("storage.retries", float64(retries), ops)
	res.set("adios.real_per_modeled_byte", float64(tm.IORealBytes)/float64(max(1, tm.IOBytes)), ops)
	res.set("core.reported_decompress_ms", median(decompress), ops)
	res.set("core.reported_restore_ms", median(restore), ops)
	res.set("core.allocs_per_op", float64(mallocs)/float64(max(1, ops)), ops)
	res.set("core.alloc_MB_per_op", float64(allocBytes)/1e6/float64(max(1, ops)), ops)
	const pairs = 16
	pct, err := e.spanOverheadPct(ctx, res, rng, pairs)
	if err != nil {
		return err
	}
	res.set("obs.span_overhead_pct", pct, pairs)
	res.set("harness.trace_overhead_pct", overheadPct(led["root.total"], plain.quantileMs(0.5)), len(plain))
	runtimeMetrics(res, &base)
	return tr.write(cfg.tracePath(res.workload))
}
