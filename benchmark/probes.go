package main

import (
	"bytes"
	"compress/flate"
	"context"
	"fmt"
	"math/rand"
	"time"

	"repro/internal/bp"
	"repro/internal/compress"
	"repro/internal/decimate"
	"repro/internal/delta"
	"repro/internal/engine"
	"repro/internal/mesh"
	"repro/internal/pq"
	"repro/internal/storage"
)

// Probes re-run one layer's public function on an operation's inputs, the way
// core calls it (same pool, same fan-out per level), inside a span of the
// layer's name. They run after the operation they belong to, never inside it.

// estimator is the delta estimator writeOpts selects by default ("mean").
var estimator delta.Estimator = delta.MeanEstimator{}

// hierarchy is a field refactored with the layers' public functions alone:
// what core.Write builds internally, rebuilt outside it.
type hierarchy struct {
	meshes   []*mesh.Mesh // finest first
	data     [][]float64  // the field at each level
	restrict []decimate.Restriction
	mappings []delta.Mapping
	deltas   [][]float64
	tiles    [][][]int32 // per non-base level, vertex ids per tile
}

// prober carries what every probe of one traced pass shares.
type prober struct {
	tr    *tracer
	pool  *engine.Pool
	codec compress.Codec
	// Totals over the pass, for the rate metrics.
	decimateVerts, decimateMallocs, decimateNs int64
	computeBytes, computeNs                    int64
	encodeRaw, encodeOut, encodeNs             int64
	putBytes, putNs                            int64
}

// timed runs fn inside a span named name under parent and returns its
// duration in nanoseconds.
func (p *prober) timed(name string, op, parent int, fn func() error) (int64, error) {
	id := p.tr.start(name, op, parent)
	t0 := time.Now()
	err := fn()
	ns := time.Since(t0).Nanoseconds()
	p.tr.end(id)
	if err != nil {
		return ns, fmt.Errorf("probe %s: %w", name, err)
	}
	return ns, nil
}

// decimateCascade runs Algorithm 1 down the levels as core.Write does.
// track records the restriction operators, as core.NewSeriesWriter does.
func decimateCascade(m *mesh.Mesh, field []float64, levels int, track bool) (*hierarchy, error) {
	h := &hierarchy{meshes: []*mesh.Mesh{m}, data: [][]float64{field}}
	for l := 0; l < levels-1; l++ {
		cur := h.meshes[l]
		res, err := decimate.Decimate(cur, h.data[l], decimate.TargetForRatio(cur.NumVerts(), 2),
			decimate.Options{TrackRestriction: track})
		if err != nil {
			return nil, err
		}
		h.meshes = append(h.meshes, res.Coarse)
		h.data = append(h.data, res.Data)
		if track {
			h.restrict = append(h.restrict, res.Restriction)
		}
	}
	return h, nil
}

// probeDecimate times the decimation cascade of one write.
func (p *prober) probeDecimate(op, parent int, m *mesh.Mesh, field []float64) (*hierarchy, error) {
	var h *hierarchy
	var ns int64
	var err error
	mallocs, _ := memDelta(func() {
		ns, err = p.timed("decimate", op, parent, func() error {
			var e error
			h, e = decimateCascade(m, field, writeOpts.Levels, false)
			return e
		})
	})
	if err != nil {
		return nil, err
	}
	for _, lm := range h.meshes[:len(h.meshes)-1] {
		p.decimateVerts += int64(lm.NumVerts())
	}
	p.decimateMallocs += int64(mallocs)
	p.decimateNs += ns
	return h, nil
}

// probeBuild times delta.Build for every level pair, one pool unit a level.
func (p *prober) probeBuild(ctx context.Context, op, parent int, h *hierarchy) error {
	h.mappings = make([]delta.Mapping, len(h.meshes)-1)
	units := make([]engine.Unit, len(h.mappings))
	for l := range units {
		l := l
		units[l] = func(context.Context) error {
			mp, err := delta.Build(h.meshes[l], h.meshes[l+1])
			h.mappings[l] = mp
			return err
		}
	}
	_, err := p.timed("delta.build", op, parent, func() error { return p.pool.Run(ctx, units...) })
	return err
}

// probeRestrict times the cached restriction chain that replaces decimation
// in a campaign step.
func (p *prober) probeRestrict(ctx context.Context, op, parent int, h *hierarchy, field []float64) error {
	h.data = make([][]float64, len(h.meshes))
	h.data[0] = field
	_, err := p.timed("decimate", op, parent, func() error {
		for l, r := range h.restrict {
			ld, err := r.ApplyParallel(ctx, p.pool, h.data[l], nil)
			if err != nil {
				return err
			}
			h.data[l+1] = ld
		}
		return nil
	})
	return err
}

// probeCompute times Algorithm 2 for every level pair, one pool unit a level.
func (p *prober) probeCompute(ctx context.Context, op, parent int, h *hierarchy) error {
	h.deltas = make([][]float64, len(h.meshes)-1)
	units := make([]engine.Unit, len(h.deltas))
	for l := range units {
		l := l
		units[l] = func(ctx context.Context) error {
			d, err := delta.ComputeInto(ctx, p.pool, h.meshes[l], h.data[l], h.meshes[l+1], h.data[l+1], h.mappings[l], estimator, nil)
			h.deltas[l] = d
			return err
		}
	}
	ns, err := p.timed("delta.compute", op, parent, func() error { return p.pool.Run(ctx, units...) })
	for _, d := range h.deltas {
		p.computeBytes += int64(8 * len(d))
	}
	p.computeNs += ns
	return err
}

// probeEncode times the codec over the pieces a write compresses: the base
// field whole and every delta tile by tile, one pool unit a level. The
// pieces are gathered before the span opens; gathering is core's work.
func (p *prober) probeEncode(ctx context.Context, op, parent int, h *hierarchy) (pieces [][][]float64, encoded [][][]byte, err error) {
	if h.tiles == nil {
		for _, lm := range h.meshes[:len(h.meshes)-1] {
			h.tiles = append(h.tiles, tilesOf(lm, writeOpts.Chunks))
		}
	}
	base := len(h.meshes) - 1
	pieces = make([][][]float64, len(h.meshes))
	pieces[base] = [][]float64{h.data[base]}
	for l, tiles := range h.tiles {
		for _, ids := range tiles {
			if len(ids) > 0 {
				pieces[l] = append(pieces[l], gather(h.deltas[l], ids))
			}
		}
	}
	encoded = make([][][]byte, len(pieces))
	units := make([]engine.Unit, len(pieces))
	for l := range units {
		l := l
		encoded[l] = make([][]byte, len(pieces[l]))
		units[l] = func(ctx context.Context) error {
			for i, vals := range pieces[l] {
				enc, err := compress.ChunkedEncode(ctx, p.pool, p.codec, vals, writeOpts.CodecChunk)
				if err != nil {
					return err
				}
				encoded[l][i] = enc
			}
			return nil
		}
	}
	ns, err := p.timed("compress.encode", op, parent, func() error { return p.pool.Run(ctx, units...) })
	for l := range pieces {
		for i := range pieces[l] {
			p.encodeRaw += int64(8 * len(pieces[l][i]))
			p.encodeOut += int64(len(encoded[l][i]))
		}
	}
	p.encodeNs += ns
	return pieces, encoded, err
}

// deflated is what core does to geometry and mappings before storing them.
// It runs outside every span: it is core's own work, so it belongs to the
// remainder.
func deflated(raw []byte) []byte {
	var buf bytes.Buffer
	fw, _ := flate.NewWriter(&buf, flate.BestSpeed)
	fw.Write(raw)
	fw.Close()
	return buf.Bytes()
}

// probeMeshEncode times mesh.Encode over every level's geometry.
func (p *prober) probeMeshEncode(op, parent int, h *hierarchy) ([][]byte, error) {
	blobs := make([][]byte, len(h.meshes))
	_, err := p.timed("mesh.encode", op, parent, func() error {
		for l, lm := range h.meshes {
			blobs[l] = mesh.Encode(lm)
		}
		return nil
	})
	return blobs, err
}

// probeAssemblePut times container assembly (bp) and the sealed write into a
// fresh hierarchy (storage) for one container per level. extra holds further
// variables per level: geometry and mapping on a whole write, none on a
// campaign step.
func (p *prober) probeAssemblePut(ctx context.Context, op, parent int, encoded [][][]byte, extra [][][]byte) error {
	containers := make([][]byte, len(encoded))
	_, err := p.timed("bp.assemble", op, parent, func() error {
		for l := range encoded {
			w := bp.NewWriter()
			if extra != nil {
				for i, blob := range extra[l] {
					if err := w.PutBytes(fmt.Sprintf("meta.%d", i), l, blob, nil); err != nil {
						return err
					}
				}
			}
			for i, enc := range encoded[l] {
				if err := w.PutBytes(fmt.Sprintf("delta.c%d", i), l, enc, map[string]string{"codec": p.codec.Name()}); err != nil {
					return err
				}
			}
			containers[l] = w.Bytes()
		}
		return nil
	})
	if err != nil {
		return err
	}
	h := storage.TitanTwoTier(0)
	ns, err := p.timed("storage.put", op, parent, func() error {
		for l := len(containers) - 1; l >= 0; l-- {
			pref := 0
			if l < len(containers)-1 {
				pref = 1
			}
			if _, err := h.Put(ctx, fmt.Sprintf("probe/L%d", l), containers[l], pref, 1); err != nil {
				return err
			}
		}
		return nil
	})
	for _, c := range containers {
		p.putBytes += int64(len(c))
	}
	p.putNs += ns
	return err
}

// probeWrite decomposes one core.Write of (m, field).
func (p *prober) probeWrite(ctx context.Context, op int, m *mesh.Mesh, field []float64) error {
	parent := p.tr.start("probe", op, 0)
	defer p.tr.end(parent)
	h, err := p.probeDecimate(op, parent, m, field)
	if err != nil {
		return err
	}
	if err := p.probeBuild(ctx, op, parent, h); err != nil {
		return err
	}
	if err := p.probeCompute(ctx, op, parent, h); err != nil {
		return err
	}
	_, encoded, err := p.probeEncode(ctx, op, parent, h)
	if err != nil {
		return err
	}
	blobs, err := p.probeMeshEncode(op, parent, h)
	if err != nil {
		return err
	}
	extra := make([][][]byte, len(blobs))
	for l := range blobs {
		extra[l] = [][]byte{deflated(blobs[l])}
		if l < len(h.mappings) {
			extra[l] = append(extra[l], deflated(h.mappings[l].Encode()))
		}
	}
	return p.probeAssemblePut(ctx, op, parent, encoded, extra)
}

// probeStep decomposes one SeriesWriter.WriteStep of field over the static
// hierarchy h (meshes, restrictions, mappings and tiles built once).
func (p *prober) probeStep(ctx context.Context, op int, h *hierarchy, field []float64) error {
	parent := p.tr.start("probe", op, 0)
	defer p.tr.end(parent)
	if err := p.probeRestrict(ctx, op, parent, h, field); err != nil {
		return err
	}
	if err := p.probeCompute(ctx, op, parent, h); err != nil {
		return err
	}
	_, encoded, err := p.probeEncode(ctx, op, parent, h)
	if err != nil {
		return err
	}
	return p.probeAssemblePut(ctx, op, parent, encoded, nil)
}

func perSecond(count, ns int64) float64 {
	if ns <= 0 {
		return 0
	}
	return float64(count) / (float64(ns) / 1e9)
}

// pushPopNs pushes n random priorities into the decimation queue and pops
// them all: nanoseconds per element.
func pushPopNs(n int, seed int64) float64 {
	rng := rand.New(rand.NewSource(seed))
	prio := make([]float64, n)
	for i := range prio {
		prio[i] = rng.Float64()
	}
	q := pq.New(n)
	t0 := time.Now()
	for i, pr := range prio {
		q.Push(i, pr)
	}
	for q.Len() > 0 {
		q.Pop()
	}
	return float64(time.Since(t0).Nanoseconds()) / float64(n)
}

// unitOverheadUs is the cost of one empty unit through Pool.Run, in batches
// of four as a campaign step issues them.
func unitOverheadUs(ctx context.Context, pool *engine.Pool) float64 {
	const batches, per = 2048, 4
	units := make([]engine.Unit, per)
	for i := range units {
		units[i] = func(context.Context) error { return nil }
	}
	t0 := time.Now()
	for i := 0; i < batches; i++ {
		_ = pool.Run(ctx, units...) // empty units cannot fail
	}
	return float64(time.Since(t0).Nanoseconds()) / 1e3 / (batches * per)
}
