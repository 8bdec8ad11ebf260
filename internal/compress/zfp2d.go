package compress

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/bits"
)

// ZFP2D is the two-dimensional variant of the ZFP-like coder for structured
// grids (the native layout of the real ZFP library): the field is tiled
// into 4x4 blocks, each block gets a shared exponent, a separable
// orthogonal transform decorrelates rows then columns, and the 16
// coefficients are coded in sequency order with the same embedded bit-plane
// scheme as the 1D codec. Exploiting correlation along *both* axes is what
// lets 2D blocks beat the linearized 1D codec on grid data — quantified by
// TestZFP2DBeats1DOnGrids.
//
// It does not implement the 1D Codec interface because its payload is a
// shaped grid, not a flat stream.
type ZFP2D struct {
	tol float64
}

// NewZFP2D returns a 2D coder with absolute error bound tol (>= 0; 0 keeps
// every bit plane, making it near-lossless like the 1D codec).
func NewZFP2D(tol float64) (*ZFP2D, error) {
	if math.IsNaN(tol) || math.IsInf(tol, 0) || tol < 0 {
		return nil, fmt.Errorf("compress: invalid zfp2d tolerance %g", tol)
	}
	return &ZFP2D{tol: tol}, nil
}

// ErrorBound reports the configured absolute error bound.
func (z *ZFP2D) ErrorBound() float64 { return z.tol }

const zfp2dMagic = 0x32465a43 // "CZF2"

// zigzag16 orders the 16 transform coefficients by total sequency so the
// significance prefix of the plane coder grows front-to-back.
var zigzag16 = [16]int{
	0, 1, 4, 8,
	5, 2, 3, 6,
	9, 12, 13, 10,
	7, 11, 14, 15,
}

// Encode compresses an nx x ny row-major grid.
func (z *ZFP2D) Encode(vals []float64, nx, ny int) ([]byte, error) {
	if nx < 1 || ny < 1 || len(vals) != nx*ny {
		return nil, fmt.Errorf("compress: zfp2d grid %dx%d with %d values", nx, ny, len(vals))
	}
	if err := checkFinite(vals); err != nil {
		return nil, err
	}
	w := getBitWriter()
	defer putBitWriter(w)
	w.buf = binary.LittleEndian.AppendUint32(w.buf, zfp2dMagic)
	w.buf = binary.AppendUvarint(w.buf, uint64(nx))
	w.buf = binary.AppendUvarint(w.buf, uint64(ny))
	w.buf = binary.LittleEndian.AppendUint64(w.buf, math.Float64bits(z.tol))

	var block [16]float64
	for by := 0; by < ny; by += 4 {
		for bx := 0; bx < nx; bx += 4 {
			// Gather with edge replication so partial blocks stay
			// smooth.
			for j := 0; j < 4; j++ {
				y := by + j
				if y >= ny {
					y = ny - 1
				}
				for i := 0; i < 4; i++ {
					x := bx + i
					if x >= nx {
						x = nx - 1
					}
					block[j*4+i] = vals[y*nx+x]
				}
			}
			encodeZFP2DBlock(w, &block, z.tol)
		}
	}
	return w.finish(), nil
}

func encodeZFP2DBlock(w *bitWriter, f *[16]float64, tol float64) {
	amax := 0.0
	for _, v := range f {
		amax = math.Max(amax, math.Abs(v))
	}
	if amax == 0 {
		w.writeBit(0)
		return
	}
	_, e := math.Frexp(amax)
	s1, s2 := zfpScale(e)
	var q [16]int64
	for i, v := range f {
		q[i] = int64(math.RoundToEven(v * s1 * s2))
	}
	// Separable sequency-ordered Hadamard: rows, then columns. Total
	// gain 16, so |c| <= 16 * 2^52 = 2^56 fits comfortably in int64.
	for r := 0; r < 4; r++ {
		hadamard4(q[4*r : 4*r+4])
	}
	var col [4]int64
	for cidx := 0; cidx < 4; cidx++ {
		for r := 0; r < 4; r++ {
			col[r] = q[4*r+cidx]
		}
		hadamard4(col[:])
		for r := 0; r < 4; r++ {
			q[4*r+cidx] = col[r]
		}
	}
	var u [16]uint64
	maxPlane := -1
	for i := range q {
		u[i] = toNegabinary(q[zigzag16[i]])
		if u[i] != 0 {
			if p := 63 - bits.LeadingZeros64(u[i]); p > maxPlane {
				maxPlane = p
			}
		}
	}
	minPlane := minPlane2DFor(tol, e)
	if maxPlane < minPlane {
		w.writeBit(0)
		return
	}
	w.writeBit(1)
	w.writeBits(uint64(e+2048), 12)
	w.writeBits(uint64(maxPlane), 6)
	n := uint(0)
	for p := maxPlane; p >= minPlane; p-- {
		encodePlane16(w, &u, uint(p), &n)
	}
}

// hadamard4 applies the in-place sequency-ordered 4-point Hadamard.
func hadamard4(v []int64) {
	a, b, c, d := v[0], v[1], v[2], v[3]
	v[0] = a + b + c + d
	v[1] = a + b - c - d
	v[2] = a - b - c + d
	v[3] = a - b + c - d
}

// invHadamard4 inverts hadamard4 up to the factor 4 (H*H = 4I).
func invHadamard4(v []int64) {
	hadamard4(v)
}

// minPlane2DFor mirrors minPlaneFor with the 2D error budget: the inverse
// separable transform maps per-coefficient error e_c to at most e_c per
// sample (two orthogonal 1D inverses, each non-expanding in max-norm after
// the 1/4 normalizations), so the same plane bound applies with one extra
// guard bit for the second pass.
func minPlane2DFor(tol float64, e int) int {
	if tol == 0 {
		return 0
	}
	p := math.Ilogb(tol) + zfpQ - e - 3
	if p < 0 {
		p = 0
	}
	if p > 63 {
		p = 64
	}
	return p
}

// encodePlane16 is the 16-coefficient embedded plane coder (the 4-wide
// version lives in zfp.go; the scheme is identical with a longer prefix).
func encodePlane16(w *bitWriter, u *[16]uint64, p uint, n *uint) {
	var x uint64
	for i := 0; i < 16; i++ {
		x |= ((u[i] >> p) & 1) << uint(i)
	}
	w.writeBits(x, *n)
	x >>= *n
	for *n < 16 {
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

func decodePlane16(r *bitReader, n *uint) (uint64, error) {
	x, err := r.readBits(*n)
	if err != nil {
		return 0, err
	}
	for *n < 16 {
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

// parseZFP2DHeader validates the grid stream header shared by the batch and
// scalar decoders.
func parseZFP2DHeader(data []byte) (nx, ny int, tol float64, payload []byte, err error) {
	if len(data) < 4 || binary.LittleEndian.Uint32(data) != zfp2dMagic {
		return 0, 0, 0, nil, errors.New("compress: bad zfp2d magic")
	}
	off := 4
	nxU, n := binary.Uvarint(data[off:])
	if n <= 0 {
		return 0, 0, 0, nil, errors.New("compress: truncated zfp2d header")
	}
	off += n
	nyU, n := binary.Uvarint(data[off:])
	if n <= 0 {
		return 0, 0, 0, nil, errors.New("compress: truncated zfp2d header")
	}
	off += n
	if len(data)-off < 8 {
		return 0, 0, 0, nil, errors.New("compress: truncated zfp2d header")
	}
	tol = math.Float64frombits(binary.LittleEndian.Uint64(data[off:]))
	off += 8
	nx, ny = int(nxU), int(nyU)
	if nx < 1 || ny < 1 || nxU*nyU > uint64(len(data))*512 {
		return 0, 0, 0, nil, fmt.Errorf("compress: implausible zfp2d dims %dx%d", nx, ny)
	}
	return nx, ny, tol, data[off:], nil
}

// Decode reverses Encode, returning the grid values and its dimensions.
func (z *ZFP2D) Decode(data []byte) ([]float64, int, int, error) {
	return z.DecodeInto(nil, data)
}

// DecodeInto is Decode with destination reuse, running the batch bit-plane
// decoder (zfp_batch.go). dst's backing array is reused when its capacity
// covers the stored grid.
func (z *ZFP2D) DecodeInto(dst []float64, data []byte) ([]float64, int, int, error) {
	nx, ny, tol, payload, err := parseZFP2DHeader(data)
	if err != nil {
		return nil, 0, 0, err
	}
	out := sizeFloats(dst, nx*ny)
	r := bitReader{buf: payload}
	if err := zfp2dDecodeBlocks(&r, tol, out, nx, ny); err != nil {
		return nil, 0, 0, err
	}
	return out, nx, ny, nil
}

// decodeScalar is the retained scalar 2D decoder, the fuzz reference for the
// batch path (FuzzZFP2DBatchVsScalar); it takes no part in production reads.
func (z *ZFP2D) decodeScalar(data []byte) ([]float64, int, int, error) {
	nx, ny, tol, payload, err := parseZFP2DHeader(data)
	if err != nil {
		return nil, 0, 0, err
	}
	out := make([]float64, nx*ny)
	r := newBitReader(payload)
	var block [16]float64
	for by := 0; by < ny; by += 4 {
		for bx := 0; bx < nx; bx += 4 {
			if err := decodeZFP2DBlock(r, tol, &block); err != nil {
				return nil, 0, 0, err
			}
			for j := 0; j < 4 && by+j < ny; j++ {
				for i := 0; i < 4 && bx+i < nx; i++ {
					out[(by+j)*nx+bx+i] = block[j*4+i]
				}
			}
		}
	}
	return out, nx, ny, nil
}

func decodeZFP2DBlock(r *bitReader, tol float64, f *[16]float64) error {
	for i := range f {
		f[i] = 0
	}
	nz, err := r.readBit()
	if err != nil {
		return err
	}
	if nz == 0 {
		return nil
	}
	eRaw, err := r.readBits(12)
	if err != nil {
		return err
	}
	e := int(eRaw) - 2048
	mpRaw, err := r.readBits(6)
	if err != nil {
		return err
	}
	maxPlane := int(mpRaw)
	minPlane := minPlane2DFor(tol, e)
	var u [16]uint64
	n := uint(0)
	for p := maxPlane; p >= minPlane; p-- {
		x, err := decodePlane16(r, &n)
		if err != nil {
			return err
		}
		for i := 0; i < 16; i++ {
			u[i] |= ((x >> uint(i)) & 1) << uint(p)
		}
	}
	var q [16]int64
	for i := range q {
		q[zigzag16[i]] = fromNegabinary(u[i])
	}
	// Inverse separable transform: columns, then rows; divide the total
	// 16x gain once at the float conversion.
	var col [4]int64
	for cidx := 0; cidx < 4; cidx++ {
		for r := 0; r < 4; r++ {
			col[r] = q[4*r+cidx]
		}
		invHadamard4(col[:])
		for r := 0; r < 4; r++ {
			q[4*r+cidx] = col[r]
		}
	}
	for r := 0; r < 4; r++ {
		invHadamard4(q[4*r : 4*r+4])
	}
	a, b := invScale(e, 4)
	for i := range f {
		f[i] = float64(q[i]) * a * b
	}
	if e > 1023 {
		clampFinite(f[:])
	}
	return nil
}
