package compress

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
)

// bitWriter packs bits LSB-first into a byte slice. The zfp-like codec's
// embedded bit-plane coder emits streams of single bits and short bit
// groups; packing them densely is where most of its compression ratio over
// raw storage comes from.
type bitWriter struct {
	buf  []byte
	cur  uint64 // pending bits, low nbits valid
	nbit uint
}

func (w *bitWriter) writeBit(b uint64) {
	w.cur |= (b & 1) << w.nbit
	w.nbit++
	if w.nbit == 64 {
		w.flushWord()
	}
}

// writeBits emits the low n bits of v, LSB first. n must be <= 64.
func (w *bitWriter) writeBits(v uint64, n uint) {
	if n == 0 {
		return
	}
	if n < 64 {
		v &= (1 << n) - 1
	}
	free := 64 - w.nbit
	if n < free {
		w.cur |= v << w.nbit
		w.nbit += n
		return
	}
	w.cur |= v << w.nbit
	w.flushWord()
	if n > free {
		w.cur = v >> free
		w.nbit = n - free
	}
}

func (w *bitWriter) flushWord() {
	w.buf = binary.LittleEndian.AppendUint64(w.buf, w.cur)
	w.cur = 0
	w.nbit = 0
}

// bitWriterPool recycles encode-side writers: the zfp/zfp2d encoders burn
// one writer (and its grown buffer) per chunk, which dominated the chunked
// encode path's allocation count. reset reclaims the retained buffer; the
// encoder copies the finished stream out before Put, so pooled buffers never
// alias returned payloads.
var bitWriterPool = sync.Pool{
	New: func() any {
		return &bitWriter{buf: make([]byte, 0, 32<<10)}
	},
}

func getBitWriter() *bitWriter {
	w := bitWriterPool.Get().(*bitWriter)
	w.buf = w.buf[:0]
	w.cur = 0
	w.nbit = 0
	return w
}

func putBitWriter(w *bitWriter) { bitWriterPool.Put(w) }

// finish seals the stream and returns an exactly-sized copy safe to retain
// after the writer goes back to the pool.
func (w *bitWriter) finish() []byte {
	enc := w.bytes()
	out := make([]byte, len(enc))
	copy(out, enc)
	return out
}

// bytes finalizes the stream, padding the last partial byte with zeros.
func (w *bitWriter) bytes() []byte {
	for w.nbit > 0 {
		w.buf = append(w.buf, byte(w.cur))
		w.cur >>= 8
		if w.nbit >= 8 {
			w.nbit -= 8
		} else {
			w.nbit = 0
		}
	}
	return w.buf
}

// errBitUnderflow is the sentinel for truncated bit streams. Call sites
// receive it wrapped with the reader's bit offset (underflowErr), so a
// corrupt container names the exact position that ran dry; errors.Is against
// this sentinel still matches.
var errBitUnderflow = errors.New("compress: bit stream underflow")

// bitReader mirrors bitWriter.
type bitReader struct {
	buf []byte
	pos int // next byte
	cur uint64
	n   uint // valid bits in cur
}

func newBitReader(buf []byte) *bitReader { return &bitReader{buf: buf} }

// bitOffset reports how many bits have been consumed so far — the position a
// truncation error points at.
func (r *bitReader) bitOffset() int64 {
	return int64(r.pos)*8 - int64(r.n)
}

// underflowErr builds the offset-carrying truncation error. It is only on
// the error path, so the allocation never taxes a healthy decode.
func (r *bitReader) underflowErr() error {
	return fmt.Errorf("%w at bit %d of %d-byte stream", errBitUnderflow, r.bitOffset(), len(r.buf))
}

func (r *bitReader) fill() {
	for r.n <= 56 && r.pos < len(r.buf) {
		r.cur |= uint64(r.buf[r.pos]) << r.n
		r.pos++
		r.n += 8
	}
}

func (r *bitReader) readBit() (uint64, error) {
	if r.n == 0 {
		r.fill()
		if r.n == 0 {
			return 0, r.underflowErr()
		}
	}
	b := r.cur & 1
	r.cur >>= 1
	r.n--
	return b, nil
}

// readBits reads n (<= 64) bits, LSB first.
func (r *bitReader) readBits(n uint) (uint64, error) {
	if n == 0 {
		return 0, nil
	}
	var v uint64
	var got uint
	for got < n {
		if r.n == 0 {
			r.fill()
			if r.n == 0 {
				return 0, r.underflowErr()
			}
		}
		take := n - got
		if take > r.n {
			take = r.n
		}
		chunk := r.cur
		if take < 64 {
			chunk &= (1 << take) - 1
		}
		v |= chunk << got
		r.cur >>= take
		r.n -= take
		got += take
	}
	return v, nil
}
