package compress

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/bits"
)

// ZFP is a fixed-accuracy transform coder for float64 streams, modeled on
// the ZFP compressor the paper integrates (Lindstrom, TVCG 2014):
//
//  1. the stream is split into blocks of 4 samples;
//  2. each block is converted to block floating point — a shared exponent e
//     and 52-bit fixed-point integers;
//  3. an orthogonal 4-point Hadamard transform (sequency-ordered)
//     decorrelates the block, concentrating energy in low coefficients for
//     smooth data;
//  4. coefficients map to negabinary so magnitude shrinks monotonically with
//     bit position regardless of sign;
//  5. bit planes are coded most-significant first with a significance-prefix
//     run-length scheme, truncated at the plane where the accumulated error
//     stays within the caller's absolute tolerance.
//
// Differences from the C library are documented in DESIGN.md: the
// decorrelating transform is the orthogonal Hadamard rather than ZFP's
// non-orthogonal lift (same role, simpler exact error analysis), and blocks
// are 1D because Canopus linearizes unstructured-mesh payloads.
//
// Smoothness wins: a block whose 4 samples are close together has tiny AC
// coefficients, so almost all bits concentrate in the DC coefficient and the
// plane coder stops early. That is exactly the property Canopus exploits —
// deltas are smoother than the levels themselves, so they compress better
// (Fig. 5).
type ZFP struct {
	tol float64
}

// NewZFP returns a ZFP-like codec with absolute error bound tol. tol must be
// non-negative; tol = 0 keeps all bit planes (near-lossless: error bounded
// by fixed-point quantization, ~2^-50 of each block's magnitude).
func NewZFP(tol float64) (*ZFP, error) {
	if math.IsNaN(tol) || math.IsInf(tol, 0) || tol < 0 {
		return nil, fmt.Errorf("compress: invalid zfp tolerance %g", tol)
	}
	return &ZFP{tol: tol}, nil
}

// Name implements Codec.
func (z *ZFP) Name() string { return "zfp" }

const (
	zfpMagic = 0x31465a43 // "CZF1"
	// zfpQ is the fixed-point precision: samples scale to integers of
	// magnitude <= 2^zfpQ before the transform.
	zfpQ = 52
	// negabinary mapping constant (…10101010 pattern).
	nbMask = 0xaaaaaaaaaaaaaaaa
)

func toNegabinary(x int64) uint64   { return (uint64(x) + nbMask) ^ nbMask }
func fromNegabinary(u uint64) int64 { return int64((u ^ nbMask) - nbMask) }

// minPlaneFor returns the lowest bit plane kept for a block with shared
// exponent e under absolute tolerance tol. Planes below it are truncated.
func minPlaneFor(tol float64, e int) int {
	if tol == 0 {
		return 0
	}
	// Coefficient truncation at plane p injects < 2^p per coefficient in
	// fixed-point units, which the inverse orthogonal transform maps to
	// at most 2^p per sample, i.e. 2^p * 2^(e-zfpQ) in value units.
	// Choose p so that is <= tol/4, leaving budget for quantization and
	// float-conversion rounding.
	p := math.Ilogb(tol) + zfpQ - e - 2
	if p < 0 {
		p = 0
	}
	if p > 63 {
		p = 64 // everything truncated
	}
	return p
}

// zfpScale returns factors s1, s2 with v*s1*s2 == v * 2^(zfpQ-e) exactly
// for every |v| < 2^e: the block-floating-point scale. One factor suffices
// down to e = -971; below it 2^(zfpQ-e) overflows float64, so the scale is
// applied in two power-of-two steps, each exact because the scaled value
// only grows and stays under 2^zfpQ.
func zfpScale(e int) (s1, s2 float64) {
	if zfpQ-e <= 1023 {
		return math.Ldexp(1, zfpQ-e), 1
	}
	return math.Ldexp(1, 1023), math.Ldexp(1, zfpQ-e-1023)
}

// invScale returns factors a, b with float64(q)*a*b == float64(q) *
// 2^(e-zfpQ-logDiv) rounded once: the inverse of zfpScale divided by the
// transform gain 2^logDiv. A normal-range result is built directly from its
// biased exponent (Ldexp's normalize/clamp path costs ~5% of a decode) and b
// is 1. Below 2^-1022 the single factor would be subnormal or underflow to
// zero, so a = 2^(exp+128) keeps the product normal and exact and b = 2^-128
// rounds it once. Exponents only corrupt headers reach above 1023 keep the
// plain Ldexp expression so every decoder agrees on them.
func invScale(e, logDiv int) (a, b float64) {
	exp := e - zfpQ - logDiv
	switch {
	case exp < -1022:
		return math.Ldexp(1, exp+128), 0x1p-128
	case e-zfpQ <= 1023:
		return math.Float64frombits(uint64(exp+1023) << 52), 1
	}
	return math.Ldexp(1, e-zfpQ) / float64(int64(1)<<logDiv), 1
}

// clampFinite replaces infinities by the largest finite value of the same
// sign. Only a block with e = 1024 decodes past MaxFloat64 — its top
// coefficient rounded up to 2^zfpQ, or truncation pushed a sample over — and
// the clamp moves such a sample toward its finite original. Decoders apply
// it to every block with e > 1023, so corrupt exponents clamp alike.
func clampFinite(f []float64) {
	for i, v := range f {
		if math.IsInf(v, 0) {
			f[i] = math.Copysign(math.MaxFloat64, v)
		}
	}
}

// Encode implements Codec through the batch bit-plane encoder
// (zfpEncodeBlocks in zfp_batch.go), which writes exactly the bytes of the
// scalar reference encodeScalar. The bit writer (and its grown buffer) comes
// from a pool and the finished stream is copied out exactly-sized, so a
// steady encode loop allocates once per call — the returned payload.
func (z *ZFP) Encode(vals []float64) ([]byte, error) {
	if err := checkFinite(vals); err != nil {
		return nil, err
	}
	w := z.startStream(len(vals))
	defer putBitWriter(w)
	zfpEncodeBlocks(w, vals, z.tol)
	return w.finish(), nil
}

// startStream returns a pooled writer holding the stream header.
func (z *ZFP) startStream(count int) *bitWriter {
	w := getBitWriter()
	w.buf = binary.LittleEndian.AppendUint32(w.buf, zfpMagic)
	w.buf = binary.AppendUvarint(w.buf, uint64(count))
	w.buf = binary.LittleEndian.AppendUint64(w.buf, math.Float64bits(z.tol))
	return w
}

// encodeScalar is the retained scalar encoder: one writeBit per group and
// run bit, one block at a time. It is the reference the batch encoder is
// fuzzed against (FuzzZFPBatchEncodeVsScalar) and takes no part in the
// production write path.
func (z *ZFP) encodeScalar(vals []float64) ([]byte, error) {
	if err := checkFinite(vals); err != nil {
		return nil, err
	}
	w := z.startStream(len(vals))
	defer putBitWriter(w)

	var block [4]float64
	for i := 0; i < len(vals); i += 4 {
		k := copy(block[:], vals[i:])
		// Pad short tail blocks by replicating the last sample, which
		// keeps the padded block smooth.
		for j := k; j < 4; j++ {
			block[j] = block[k-1]
		}
		encodeZFPBlock(w, block, z.tol)
	}
	return w.finish(), nil
}

func encodeZFPBlock(w *bitWriter, f [4]float64, tol float64) {
	amax := math.Max(math.Max(math.Abs(f[0]), math.Abs(f[1])), math.Max(math.Abs(f[2]), math.Abs(f[3])))
	if amax == 0 {
		w.writeBit(0) // zero block
		return
	}
	// Shared exponent: amax < 2^e.
	_, e := math.Frexp(amax) // amax = frac * 2^e, frac in [0.5, 1)
	s1, s2 := zfpScale(e)
	var q [4]int64
	for i, v := range f {
		q[i] = int64(math.RoundToEven(v * s1 * s2))
	}
	// Sequency-ordered 4-point Hadamard.
	c := [4]int64{
		q[0] + q[1] + q[2] + q[3],
		q[0] + q[1] - q[2] - q[3],
		q[0] - q[1] - q[2] + q[3],
		q[0] - q[1] + q[2] - q[3],
	}
	var u [4]uint64
	maxPlane := -1
	for i, ci := range c {
		u[i] = toNegabinary(ci)
		if u[i] != 0 {
			if p := 63 - bits.LeadingZeros64(u[i]); p > maxPlane {
				maxPlane = p
			}
		}
	}
	minPlane := minPlaneFor(tol, e)
	if maxPlane < minPlane {
		// All coefficient content is below the tolerance cutoff:
		// representable as a zero block within the error bound.
		w.writeBit(0)
		return
	}
	w.writeBit(1)
	w.writeBits(uint64(e+2048), 12)
	w.writeBits(uint64(maxPlane), 6)
	n := uint(0) // significance prefix, grows monotonically across planes
	for p := maxPlane; p >= minPlane; p-- {
		var x uint64
		for i := 0; i < 4; i++ {
			x |= ((u[i] >> uint(p)) & 1) << uint(i)
		}
		encodePlane(w, x, &n)
	}
}

// encodePlane emits one 4-bit plane x using the significance-prefix scheme:
// the first *n coefficients (already significant in an earlier plane) emit
// raw bits; the rest are run-length coded — a group-test bit says whether
// any 1 remains, then zero bits are emitted until the terminating 1, which
// extends the significance prefix.
func encodePlane(w *bitWriter, x uint64, n *uint) {
	w.writeBits(x, *n)
	x >>= *n
	for *n < 4 {
		if x == 0 {
			w.writeBit(0)
			return
		}
		w.writeBit(1)
		for {
			b := x & 1
			x >>= 1
			*n++
			w.writeBit(b)
			if b == 1 {
				break
			}
		}
	}
}

func decodePlane(r *bitReader, n *uint) (uint64, error) {
	x, err := r.readBits(*n)
	if err != nil {
		return 0, err
	}
	for *n < 4 {
		g, err := r.readBit()
		if err != nil {
			return 0, err
		}
		if g == 0 {
			break
		}
		for {
			b, err := r.readBit()
			if err != nil {
				return 0, err
			}
			if b == 1 {
				x |= 1 << *n
				*n++
				break
			}
			*n++
		}
	}
	return x, nil
}

// parseZFPHeader validates the stream header shared by the batch and scalar
// decoders and returns the stored value count, the encode-time tolerance,
// and the bit-plane payload.
func parseZFPHeader(data []byte) (count int, tol float64, payload []byte, err error) {
	if len(data) < 4 || binary.LittleEndian.Uint32(data) != zfpMagic {
		return 0, 0, nil, errors.New("compress: bad zfp magic")
	}
	off := 4
	countU, nn := binary.Uvarint(data[off:])
	if nn <= 0 {
		return 0, 0, nil, errors.New("compress: truncated zfp header")
	}
	off += nn
	if len(data)-off < 8 {
		return 0, 0, nil, errors.New("compress: truncated zfp header")
	}
	tol = math.Float64frombits(binary.LittleEndian.Uint64(data[off:]))
	off += 8
	if countU > uint64(len(data))*64 {
		return 0, 0, nil, fmt.Errorf("compress: implausible zfp count %d", countU)
	}
	return int(countU), tol, data[off:], nil
}

// DecodeInto implements Codec through the batch bit-plane decoder
// (zfp_batch.go): whole 64-bit words move from the stream into a register,
// significance runs collapse to TrailingZeros counts, and tolerance-truncated
// blocks accumulate through the spread table. The bit reader lives on the
// stack and the output goes straight into dst when it has capacity, so a
// warm decode loop performs no allocations.
func (z *ZFP) DecodeInto(dst []float64, data []byte) ([]float64, error) {
	count, tol, payload, err := parseZFPHeader(data)
	if err != nil {
		return nil, err
	}
	out := sizeFloats(dst, count)
	r := bitReader{buf: payload}
	if err := zfpDecodeBlocks(&r, tol, out); err != nil {
		return nil, err
	}
	return out, nil
}

// decodeIntoScalar is the retained scalar decoder: one readBit per stream
// bit, exactly the pre-batch implementation. It is the reference the batch
// decoder is fuzzed against (FuzzZFPBatchVsScalar) and takes no part in the
// production read path.
func (z *ZFP) decodeIntoScalar(dst []float64, data []byte) ([]float64, error) {
	count, tol, payload, err := parseZFPHeader(data)
	if err != nil {
		return nil, err
	}
	out := sizeFloats(dst, count)
	r := bitReader{buf: payload}
	for i := 0; i < len(out); i += 4 {
		blk, err := decodeZFPBlock(&r, tol)
		if err != nil {
			return nil, err
		}
		copy(out[i:], blk[:])
	}
	return out, nil
}

func decodeZFPBlock(r *bitReader, tol float64) ([4]float64, error) {
	var f [4]float64
	nz, err := r.readBit()
	if err != nil {
		return f, err
	}
	if nz == 0 {
		return f, nil
	}
	eRaw, err := r.readBits(12)
	if err != nil {
		return f, err
	}
	e := int(eRaw) - 2048
	mpRaw, err := r.readBits(6)
	if err != nil {
		return f, err
	}
	maxPlane := int(mpRaw)
	minPlane := minPlaneFor(tol, e)
	var u [4]uint64
	n := uint(0)
	for p := maxPlane; p >= minPlane; p-- {
		x, err := decodePlane(r, &n)
		if err != nil {
			return f, err
		}
		for i := 0; i < 4; i++ {
			u[i] |= ((x >> uint(i)) & 1) << uint(p)
		}
	}
	c := [4]int64{
		fromNegabinary(u[0]),
		fromNegabinary(u[1]),
		fromNegabinary(u[2]),
		fromNegabinary(u[3]),
	}
	// Inverse Hadamard (the matrix is symmetric and H*H = 4I).
	q := [4]int64{
		c[0] + c[1] + c[2] + c[3],
		c[0] + c[1] - c[2] - c[3],
		c[0] - c[1] - c[2] + c[3],
		c[0] - c[1] + c[2] - c[3],
	}
	a, b := invScale(e, 2)
	for i := range f {
		f[i] = float64(q[i]) * a * b
	}
	if e > 1023 {
		clampFinite(f[:])
	}
	return f, nil
}
