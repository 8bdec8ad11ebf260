// Package core implements Canopus itself — the progressive data refactoring
// middleware that is the paper's primary contribution.
//
// A Dataset (floats over an unstructured triangular mesh) is refactored into
// a low-accuracy base dataset L^(N-1) plus a series of deltas
// delta^(l-(l+1)) (§III-C): each refactoring iteration decimates the mesh
// (Algorithm 1), computes the delta against the coarser level (Algorithm 2),
// and compresses the products with a floating-point codec (§III-C3). The
// products are then placed across a storage hierarchy, base on the fastest
// tier (§III-D). Analytics retrieve the base quickly and progressively
// augment accuracy by fetching and applying deltas from slower tiers
// (§III-E), trading accuracy for speed on-the-fly.
package core

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/compress"
	"repro/internal/delta"
	"repro/internal/mesh"
)

// Dataset is one named variable over an unstructured triangular mesh — the
// unit Canopus refactors (e.g. XGC1's dpot on one poloidal plane).
type Dataset struct {
	Name string
	Mesh *mesh.Mesh
	Data []float64
}

// Validate checks internal consistency.
func (d *Dataset) Validate() error {
	if d.Name == "" {
		return errors.New("canopus: dataset needs a name")
	}
	if d.Mesh == nil {
		return errors.New("canopus: dataset needs a mesh")
	}
	if len(d.Data) != d.Mesh.NumVerts() {
		return fmt.Errorf("canopus: data length %d != vertex count %d", len(d.Data), d.Mesh.NumVerts())
	}
	return d.Mesh.Validate()
}

// RawBytes is the uncompressed payload size (data only, excluding mesh).
func (d *Dataset) RawBytes() int64 { return int64(8 * len(d.Data)) }

// Mode selects the refactoring strategy.
type Mode int

const (
	// ModeDelta is Canopus proper: store the base level plus deltas.
	ModeDelta Mode = iota
	// ModeDirect is the §II-B baseline: compress every level L^l
	// independently, no deltas. Retrieval reads exactly one product.
	ModeDirect
)

func (m Mode) String() string {
	switch m {
	case ModeDelta:
		return "delta"
	case ModeDirect:
		return "direct"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// ModeByName parses a mode name.
func ModeByName(s string) (Mode, error) {
	switch s {
	case "delta", "":
		return ModeDelta, nil
	case "direct":
		return ModeDirect, nil
	default:
		return 0, fmt.Errorf("canopus: unknown mode %q", s)
	}
}

// Options configures refactoring.
type Options struct {
	// Levels is the total number of accuracy levels N (>= 1). N = 1
	// stores only the full-accuracy level.
	Levels int
	// RatioPerLevel is the decimation ratio between adjacent levels
	// (default 2), so level l has |V^0| / ratio^l vertices.
	RatioPerLevel float64
	// Codec names the floating-point compressor for data and deltas
	// (default "zfp"). Mesh geometry and mappings are always stored
	// losslessly, since restoration must reproduce refactor-time
	// estimates exactly.
	Codec string
	// RelTolerance sets the lossy codec's absolute error bound to
	// RelTolerance × range(L^0). Default 1e-6. Ignored by lossless
	// codecs.
	RelTolerance float64
	// Estimator names the delta estimator (default "mean", the paper's
	// α=β=γ=1/3).
	Estimator string
	// Mode selects delta refactoring (Canopus) or the direct multi-level
	// baseline.
	Mode Mode
	// Chunks splits each delta into Chunks x Chunks spatial tiles stored
	// as separate selectively-readable variables, enabling focused
	// regional retrieval (Reader.RetrieveRegion). Default 1 (one tile).
	Chunks int
	// Workers bounds the engine worker pool that executes independent
	// units (per-level delta and compression in the write step).
	// 0 means runtime.NumCPU(); 1 forces the exact serial execution order.
	// Stored products are byte-identical at every worker count.
	Workers int
	// CodecChunk sets the values-per-chunk of the chunked codec container
	// (compress.ChunkedEncode): products larger than one chunk are framed
	// as independent per-chunk bitstreams so decompression fans out across
	// the worker pool. 0 selects compress.DefaultChunkSize; negative
	// disables framing and stores plain v1 codec streams. Readers sniff the
	// frame magic, so either setting reads archives written with the other.
	CodecChunk int
}

func (o Options) withDefaults() Options {
	if o.Levels == 0 {
		o.Levels = 3
	}
	if o.RatioPerLevel == 0 {
		o.RatioPerLevel = 2
	}
	if o.Codec == "" {
		o.Codec = "zfp"
	}
	if o.RelTolerance == 0 {
		o.RelTolerance = 1e-6
	}
	if o.Estimator == "" {
		o.Estimator = "mean"
	}
	if o.Chunks == 0 {
		o.Chunks = 1
	}
	return o
}

func (o Options) validate() error {
	if o.Levels < 1 || o.Levels > maxLevels {
		return fmt.Errorf("canopus: Levels %d out of range [1,%d]", o.Levels, maxLevels)
	}
	if o.RatioPerLevel <= 1 && o.Levels > 1 {
		return fmt.Errorf("canopus: RatioPerLevel %g must exceed 1", o.RatioPerLevel)
	}
	if o.RelTolerance < 0 {
		return fmt.Errorf("canopus: negative RelTolerance %g", o.RelTolerance)
	}
	if _, err := delta.EstimatorByName(o.Estimator); err != nil {
		return err
	}
	if o.Mode != ModeDelta && o.Mode != ModeDirect {
		return fmt.Errorf("canopus: invalid mode %d", int(o.Mode))
	}
	if o.Chunks < 1 || o.Chunks > maxChunks {
		return fmt.Errorf("canopus: Chunks %d out of range [1,%d]", o.Chunks, maxChunks)
	}
	return nil
}

// CodecFor builds the codec Write would use for opts over data: the named
// compressor with absolute tolerance RelTolerance × range(data). The bench
// harness uses it to decompose the write path phase by phase.
func CodecFor(opts Options, data []float64) (compress.Codec, float64, error) {
	opts = opts.withDefaults()
	if err := opts.validate(); err != nil {
		return nil, 0, err
	}
	return opts.codecFor(data)
}

// codecFor builds the configured codec with the absolute tolerance derived
// from the data range.
func (o Options) codecFor(data []float64) (compress.Codec, float64, error) {
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, v := range data {
		lo = math.Min(lo, v)
		hi = math.Max(hi, v)
	}
	rng := hi - lo
	if len(data) == 0 || rng <= 0 || math.IsInf(rng, 0) {
		rng = 1
	}
	tol := o.RelTolerance * rng
	c, err := compress.New(o.Codec, tol)
	if err != nil {
		return nil, 0, err
	}
	return c, tol, nil
}

// Storage key layout. Each level is one BP container; a small metadata
// container on the fastest tier records the layout (the "global metadata"
// of §III-E1).
func metaKey(name string) string         { return name + "/meta" }
func levelKey(name string, l int) string { return fmt.Sprintf("%s/L%d", name, l) }
func rawKey(name string) string          { return name + "/raw" }

// tierFor maps accuracy level l (0 = finest) to a preferred tier: the base
// level N-1 goes to the fastest tier, each finer delta one tier lower, with
// the hierarchy's own bypass logic handling capacity (§III-D notes adjacent
// levels need not land on adjacent physical tiers).
func tierFor(level, totalLevels, numTiers int) int {
	t := totalLevels - 1 - level
	if t > numTiers-1 {
		t = numTiers - 1
	}
	if t < 0 {
		t = 0
	}
	return t
}
