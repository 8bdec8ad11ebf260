package compress

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sync"
)

// FPC is a lossless double-precision compressor modeled on FPC (Burtscher &
// Ratanaworabhan, IEEE ToC 2009), which the paper lists as a planned
// Canopus integration and which represents the "lossless compression
// achieves < 2x on scientific data" class discussed in §V.
//
// Two hash-table value predictors run in parallel — an FCM (finite context
// method) over recent values and a DFCM (differential FCM) over recent
// strides. Each double is XORed with the closer prediction; the result has
// many leading zero bytes when prediction is good. A 4-bit code per value
// (1 selector bit + 3-bit leading-zero-byte count) plus the residual bytes
// form the output.
type FPC struct {
	tableLog uint // log2 of predictor table size
}

// NewFPC returns an FPC codec with 2^tableLog-entry predictor tables.
// tableLog is clamped to [4, 24]; 16 matches the original paper's defaults.
func NewFPC(tableLog uint) *FPC {
	if tableLog < 4 {
		tableLog = 4
	}
	if tableLog > 24 {
		tableLog = 24
	}
	return &FPC{tableLog: tableLog}
}

// Name implements Codec.
func (f *FPC) Name() string { return "fpc" }

const fpcMagic = 0x31435046 // "FPC1"

// fpcPredictor holds the shared FCM/DFCM state. Encode and Decode must
// update it identically so predictions match.
type fpcPredictor struct {
	fcm, dfcm    []uint64
	fhash, dhash uint64
	last         uint64
	mask         uint64
	tableLog     uint
}

func newFPCPredictor(tableLog uint) *fpcPredictor {
	size := uint64(1) << tableLog
	return &fpcPredictor{
		fcm:      make([]uint64, size),
		dfcm:     make([]uint64, size),
		mask:     size - 1,
		tableLog: tableLog,
	}
}

// reset clears all predictor state so a pooled predictor behaves exactly
// like a fresh one. Zeroing the tables is far cheaper than allocating them:
// at the default tableLog the two tables are 1 MiB, which is why predictor
// reuse dominates the fpc decode allocation profile.
func (p *fpcPredictor) reset() {
	clear(p.fcm)
	clear(p.dfcm)
	p.fhash, p.dhash, p.last = 0, 0, 0
}

// fpcPredictorPool recycles predictor tables across Encode/Decode calls.
// sync.Pool is unkeyed, so a pooled predictor whose tableLog does not match
// the request is dropped and a fresh one allocated; in practice a process
// uses one tableLog throughout.
var fpcPredictorPool = sync.Pool{}

func getFPCPredictor(tableLog uint) *fpcPredictor {
	if v := fpcPredictorPool.Get(); v != nil {
		p := v.(*fpcPredictor)
		if p.tableLog == tableLog {
			p.reset()
			return p
		}
	}
	return newFPCPredictor(tableLog)
}

func putFPCPredictor(p *fpcPredictor) { fpcPredictorPool.Put(p) }

// predict returns both predictions for the next value.
func (p *fpcPredictor) predict() (fcmPred, dfcmPred uint64) {
	return p.fcm[p.fhash], p.dfcm[p.dhash] + p.last
}

// update advances the predictor state after observing actual value bits.
func (p *fpcPredictor) update(actual uint64) {
	p.fcm[p.fhash] = actual
	p.fhash = ((p.fhash << 6) ^ (actual >> 48)) & p.mask
	delta := actual - p.last
	p.dfcm[p.dhash] = delta
	p.dhash = ((p.dhash << 2) ^ (delta >> 40)) & p.mask
	p.last = actual
}

// lzbCode maps a leading-zero-byte count (0..8) to FPC's 3-bit code. A count
// of exactly 4 is encoded as 3 (one residual byte wasted), matching the
// original format which steals that code point for counts 5..8.
func lzbCode(lzb int) (code uint8, coded int) {
	if lzb == 4 {
		return 3, 3
	}
	if lzb >= 5 {
		return uint8(lzb - 1), lzb
	}
	return uint8(lzb), lzb
}

func codeLZB(code uint8) int {
	if code >= 4 {
		return int(code) + 1
	}
	return int(code)
}

func leadingZeroBytes(x uint64) int {
	n := 0
	for n < 8 && (x>>(56-8*uint(n)))&0xff == 0 {
		n++
	}
	return n
}

// Encode implements Codec.
func (f *FPC) Encode(vals []float64) ([]byte, error) {
	out := make([]byte, 0, 8+len(vals)*5)
	out = binary.LittleEndian.AppendUint32(out, fpcMagic)
	out = binary.AppendUvarint(out, uint64(len(vals)))
	out = append(out, byte(f.tableLog))

	headers := make([]byte, 0, (len(vals)+1)/2)
	residuals := make([]byte, 0, len(vals)*4)
	pred := getFPCPredictor(f.tableLog)
	defer putFPCPredictor(pred)

	var pendingNibble uint8
	havePending := false
	for _, v := range vals {
		bits := math.Float64bits(v)
		fcmPred, dfcmPred := pred.predict()
		xf := bits ^ fcmPred
		xd := bits ^ dfcmPred
		var sel uint8
		var xor uint64
		if leadingZeroBytes(xd) > leadingZeroBytes(xf) {
			sel, xor = 1, xd
		} else {
			sel, xor = 0, xf
		}
		code, coded := lzbCode(leadingZeroBytes(xor))
		nib := sel<<3 | code
		if havePending {
			headers = append(headers, pendingNibble<<4|nib)
			havePending = false
		} else {
			pendingNibble = nib
			havePending = true
		}
		for i := 8 - coded - 1; i >= 0; i-- {
			residuals = append(residuals, byte(xor>>(8*uint(i))))
		}
		pred.update(bits)
	}
	if havePending {
		headers = append(headers, pendingNibble<<4)
	}
	out = binary.AppendUvarint(out, uint64(len(headers)))
	out = append(out, headers...)
	out = append(out, residuals...)
	return out, nil
}

// DecodeInto implements Codec. Predictor tables come from a pool, so a warm
// decode allocates nothing beyond a possibly-growing dst.
func (f *FPC) DecodeInto(dst []float64, data []byte) ([]float64, error) {
	if len(data) < 4 || binary.LittleEndian.Uint32(data) != fpcMagic {
		return nil, errors.New("compress: bad fpc magic")
	}
	off := 4
	count, n := binary.Uvarint(data[off:])
	if n <= 0 {
		return nil, errors.New("compress: truncated fpc header")
	}
	off += n
	if off >= len(data) {
		return nil, errors.New("compress: truncated fpc header")
	}
	tableLog := uint(data[off])
	off++
	if tableLog < 4 || tableLog > 24 {
		return nil, fmt.Errorf("compress: invalid fpc table log %d", tableLog)
	}
	hdrLen, n := binary.Uvarint(data[off:])
	if n <= 0 {
		return nil, errors.New("compress: truncated fpc header")
	}
	off += n
	if uint64(len(data)-off) < hdrLen || hdrLen < (count+1)/2 {
		return nil, errors.New("compress: truncated fpc headers")
	}
	headers := data[off : off+int(hdrLen)]
	residuals := data[off+int(hdrLen):]

	pred := getFPCPredictor(tableLog)
	defer putFPCPredictor(pred)
	out := sizeFloats(dst, int(count))
	rp := 0
	for i := uint64(0); i < count; i++ {
		hb := headers[i/2]
		var nib uint8
		if i%2 == 0 {
			nib = hb >> 4
		} else {
			nib = hb & 0x0f
		}
		sel := nib >> 3
		coded := codeLZB(nib & 7)
		nres := 8 - coded
		if rp+nres > len(residuals) {
			return nil, errors.New("compress: truncated fpc residuals")
		}
		var xor uint64
		for j := 0; j < nres; j++ {
			xor = xor<<8 | uint64(residuals[rp])
			rp++
		}
		fcmPred, dfcmPred := pred.predict()
		var bits uint64
		if sel == 1 {
			bits = xor ^ dfcmPred
		} else {
			bits = xor ^ fcmPred
		}
		out[i] = math.Float64frombits(bits)
		pred.update(bits)
	}
	return out, nil
}
