// Package compress provides the floating-point compressors Canopus applies
// to refactored data products (§III-C3 of the paper).
//
// Canopus integrated ZFP and planned SZ and FPC; this package implements
// from-scratch Go codecs with the same algorithmic skeletons:
//
//   - zfp:   fixed-accuracy transform coder — block floating point over
//     4-sample blocks, an orthogonal decorrelating transform, negabinary
//     mapping, and embedded bit-plane coding with significance run-length
//     coding. Honors an absolute error bound on every sample.
//   - sz:    error-bounded predictive coder — linear/quadratic curve-fit
//     prediction with linear-scaling quantization and an entropy-coded
//     (flate) code stream.
//   - fpc:   lossless FCM/DFCM XOR predictor with leading-zero-byte codes.
//   - flate: lossless DEFLATE over the raw IEEE-754 bytes (the general
//     purpose baseline the paper compares against implicitly).
//   - raw:   identity codec, for accounting baselines.
//
// All codecs serialize to self-describing byte slices: DecodeInto never
// needs out-of-band parameters.
//
// Two layers serve the hot read path on top of the plain codecs:
//
//   - DecodeInto on every codec reuses a caller-provided destination slice,
//     so steady-state retrieval loops decode without per-call output
//     allocations; and
//   - the chunked container (chunked.go) frames a product's values as
//     independent per-chunk bitstreams so decode fans out across a worker
//     pool.
package compress

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sync"
)

// Codec compresses and decompresses []float64 payloads.
type Codec interface {
	// Name is the registry key, e.g. "zfp".
	Name() string
	// Encode compresses vals into a self-describing byte stream.
	Encode(vals []float64) ([]byte, error)
	// DecodeInto reverses Encode, reusing dst's backing array when its
	// capacity suffices and allocating only when the stored value count
	// needs more room (dst may be nil). It returns the decoded values
	// (len == stored count); the contents of dst beyond that length are
	// unspecified.
	DecodeInto(dst []float64, data []byte) ([]float64, error)
}

// ErrNonFinite is returned when a lossy codec receives NaN or ±Inf, which
// have no meaningful error-bounded representation.
var ErrNonFinite = errors.New("compress: input contains non-finite values")

// checkFinite returns ErrNonFinite if any value is NaN or infinite.
func checkFinite(vals []float64) error {
	for _, v := range vals {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return ErrNonFinite
		}
	}
	return nil
}

// New returns a codec by name. Lossy codecs take tol as their absolute error
// bound; lossless codecs ignore it. Supported names: "zfp", "sz", "fpc",
// "flate", "raw".
func New(name string, tol float64) (Codec, error) {
	switch name {
	case "zfp":
		return NewZFP(tol)
	case "sz":
		return NewSZ(tol)
	case "fpc":
		return NewFPC(16), nil
	case "flate":
		return NewFlate(), nil
	case "raw":
		return Raw{}, nil
	default:
		return nil, fmt.Errorf("compress: unknown codec %q", name)
	}
}

// sizeFloats returns dst resized to n values, reusing its backing array when
// possible. It is the single growth policy behind every DecodeInto.
func sizeFloats(dst []float64, n int) []float64 {
	if cap(dst) >= n {
		return dst[:n]
	}
	return make([]float64, n)
}

// byteScratchPool recycles the transient byte buffers the codecs burn
// through on every call: serialized IEEE-754 images on the flate encode
// path and inflated payloads on the sz/flate decode paths. Buffers are
// pooled as pointers to avoid an allocation per Put.
var byteScratchPool = sync.Pool{
	New: func() any {
		s := make([]byte, 0, 64<<10)
		return &s
	},
}

func getByteScratch() *[]byte  { return byteScratchPool.Get().(*[]byte) }
func putByteScratch(s *[]byte) { *s = (*s)[:0]; byteScratchPool.Put(s) }

// floatsToBytes serializes vals as little-endian IEEE-754 doubles.
func floatsToBytes(vals []float64) []byte {
	return floatsToBytesInto(nil, vals)
}

// floatsToBytesInto serializes vals into dst's backing array when it has
// room, so encode paths that only need the bytes transiently (flate) can
// feed it a pooled scratch buffer.
func floatsToBytesInto(dst []byte, vals []float64) []byte {
	n := 8 * len(vals)
	if cap(dst) >= n {
		dst = dst[:n]
	} else {
		dst = make([]byte, n)
	}
	for i, v := range vals {
		binary.LittleEndian.PutUint64(dst[8*i:], math.Float64bits(v))
	}
	return dst
}

// bytesToFloatsInto reverses floatsToBytes into dst's backing array when its
// capacity suffices — the allocation-free half of every lossless DecodeInto.
func bytesToFloatsInto(dst []float64, data []byte) ([]float64, error) {
	if len(data)%8 != 0 {
		return nil, fmt.Errorf("compress: byte length %d not a multiple of 8", len(data))
	}
	out := sizeFloats(dst, len(data)/8)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[8*i:]))
	}
	return out, nil
}

// Raw is the identity codec: the encoded form is the raw little-endian
// bytes. It is the honest "no compression" baseline for size accounting.
type Raw struct{}

// Name implements Codec.
func (Raw) Name() string { return "raw" }

// Encode implements Codec.
func (Raw) Encode(vals []float64) ([]byte, error) {
	return floatsToBytes(vals), nil
}

// DecodeInto implements Codec.
func (Raw) DecodeInto(dst []float64, data []byte) ([]float64, error) {
	return bytesToFloatsInto(dst, data)
}
