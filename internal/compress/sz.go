package compress

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// SZ is an error-bounded predictive coder modeled on the SZ compressor (Di &
// Cappello, IPDPS 2016) the paper lists as an in-progress Canopus
// integration.
//
// Each sample is predicted from the previously *reconstructed* samples with
// a linear curve fit (pred = 2*r[i-1] - r[i-2]); the prediction residual is
// quantized to an integer code with linear scaling (step = 2*eb), which
// guarantees |value - reconstruction| <= eb. Codes are zig-zag varint
// encoded and the byte stream is entropy-coded with DEFLATE, standing in for
// SZ's Huffman stage. Samples whose residual exceeds the quantization range
// (or whose reconstruction would violate the bound due to floating-point
// rounding) are escaped as 8-byte literals, exactly like SZ's
// "unpredictable data" path.
type SZ struct {
	eb float64
}

// NewSZ returns an SZ-like codec with absolute error bound eb > 0.
func NewSZ(eb float64) (*SZ, error) {
	if !(eb > 0) || math.IsInf(eb, 0) {
		return nil, fmt.Errorf("compress: sz error bound must be positive and finite, got %g", eb)
	}
	return &SZ{eb: eb}, nil
}

// Name implements Codec.
func (s *SZ) Name() string { return "sz" }

const (
	szMagic = 0x315a5343 // "CSZ1"
	// szEscape marks a literal sample in the code stream. Valid codes are
	// bounded well below it.
	szEscape  = int64(1) << 50
	szMaxCode = int64(1) << 45
)

// Encode implements Codec.
func (s *SZ) Encode(vals []float64) ([]byte, error) {
	if err := checkFinite(vals); err != nil {
		return nil, err
	}
	codes := make([]byte, 0, len(vals))
	lits := make([]byte, 0, 64)
	step := 2 * s.eb

	emitLiteral := func(v float64) {
		codes = binary.AppendVarint(codes, szEscape)
		lits = binary.LittleEndian.AppendUint64(lits, math.Float64bits(v))
	}

	// r0, r1 hold the last two reconstructed samples.
	var r0, r1 float64
	for i, v := range vals {
		var pred float64
		switch i {
		case 0:
			emitLiteral(v)
			r1 = v
			continue
		case 1:
			pred = r1
		default:
			pred = 2*r1 - r0
		}
		code := math.RoundToEven((v - pred) / step)
		recon := pred + code*step
		if math.Abs(code) > float64(szMaxCode) || math.Abs(recon-v) > s.eb || math.IsNaN(recon) || math.IsInf(recon, 0) {
			emitLiteral(v)
			r0, r1 = r1, v
			continue
		}
		codes = binary.AppendVarint(codes, int64(code))
		r0, r1 = r1, recon
	}

	// Assemble payload: lengths + code stream + literal stream, then
	// DEFLATE as the entropy stage.
	payload := make([]byte, 0, len(codes)+len(lits)+16)
	payload = binary.AppendUvarint(payload, uint64(len(codes)))
	payload = binary.AppendUvarint(payload, uint64(len(lits)))
	payload = append(payload, codes...)
	payload = append(payload, lits...)

	var out bytes.Buffer
	hdr := make([]byte, 0, 24)
	hdr = binary.LittleEndian.AppendUint32(hdr, szMagic)
	hdr = binary.AppendUvarint(hdr, uint64(len(vals)))
	hdr = binary.LittleEndian.AppendUint64(hdr, math.Float64bits(s.eb))
	out.Write(hdr)
	if err := deflateTo(&out, payload); err != nil {
		return nil, fmt.Errorf("compress: sz flate: %w", err)
	}
	return out.Bytes(), nil
}

// DecodeInto implements Codec. The inflated payload lives in a pooled
// scratch buffer for the duration of the call.
func (s *SZ) DecodeInto(dst []float64, data []byte) ([]float64, error) {
	if len(data) < 4 || binary.LittleEndian.Uint32(data) != szMagic {
		return nil, errors.New("compress: bad sz magic")
	}
	off := 4
	count, n := binary.Uvarint(data[off:])
	if n <= 0 {
		return nil, errors.New("compress: truncated sz header")
	}
	off += n
	if len(data)-off < 8 {
		return nil, errors.New("compress: truncated sz header")
	}
	eb := math.Float64frombits(binary.LittleEndian.Uint64(data[off:]))
	off += 8
	scratch := getByteScratch()
	defer putByteScratch(scratch)
	payload, err := InflateAppend((*scratch)[:0], data[off:])
	if err != nil {
		return nil, fmt.Errorf("compress: sz inflate: %w", err)
	}
	*scratch = payload
	p := 0
	codeLen, n := binary.Uvarint(payload[p:])
	if n <= 0 {
		return nil, errors.New("compress: truncated sz payload")
	}
	p += n
	litLen, n := binary.Uvarint(payload[p:])
	if n <= 0 {
		return nil, errors.New("compress: truncated sz payload")
	}
	p += n
	if uint64(len(payload)-p) < codeLen+litLen {
		return nil, errors.New("compress: truncated sz payload")
	}
	codes := payload[p : p+int(codeLen)]
	lits := payload[p+int(codeLen) : p+int(codeLen)+int(litLen)]

	step := 2 * eb
	out := sizeFloats(dst, int(count))
	var r0, r1 float64
	cp, lp := 0, 0
	for i := range out {
		code, n := binary.Varint(codes[cp:])
		if n <= 0 {
			return nil, errors.New("compress: truncated sz code stream")
		}
		cp += n
		var v float64
		if code == szEscape {
			if lp+8 > len(lits) {
				return nil, errors.New("compress: truncated sz literal stream")
			}
			v = math.Float64frombits(binary.LittleEndian.Uint64(lits[lp:]))
			lp += 8
		} else {
			var pred float64
			switch i {
			case 0:
				return nil, errors.New("compress: sz stream must start with a literal")
			case 1:
				pred = r1
			default:
				pred = 2*r1 - r0
			}
			v = pred + float64(code)*step
		}
		out[i] = v
		r0, r1 = r1, v
	}
	return out, nil
}
