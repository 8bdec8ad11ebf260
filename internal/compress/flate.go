package compress

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sync"
)

// Flate compresses the raw IEEE-754 bytes with DEFLATE. It is the
// general-purpose lossless baseline: dictionary compressors do poorly on
// floating-point mantissa noise, which is why the paper's §V observes that
// lossless compression rarely exceeds 2x on scientific data. Keeping it in
// the registry lets the ablation benches demonstrate that observation.
type Flate struct{}

// NewFlate returns the DEFLATE codec.
func NewFlate() *Flate { return &Flate{} }

// Name implements Codec.
func (*Flate) Name() string { return "flate" }

const flateMagic = 0x31464c43 // "CLF1"

// flateWriterPool recycles DEFLATE encoder state (window, hash chains)
// across Encode calls; a Reset-ed writer produces output identical to a
// fresh one.
var flateWriterPool = sync.Pool{
	New: func() any {
		fw, err := flate.NewWriter(io.Discard, flate.BestSpeed)
		if err != nil {
			// Only reachable on an invalid level constant.
			panic(err)
		}
		return fw
	},
}

// deflateTo compresses src at BestSpeed and writes the stream to out using a
// pooled encoder.
func deflateTo(out io.Writer, src []byte) error {
	fw := flateWriterPool.Get().(*flate.Writer)
	defer flateWriterPool.Put(fw)
	fw.Reset(out)
	if _, err := fw.Write(src); err != nil {
		return err
	}
	return fw.Close()
}

// DeflateAppend compresses src at BestSpeed with a pooled encoder and
// appends the DEFLATE stream to dst. The output depends on src alone.
func DeflateAppend(dst, src []byte) ([]byte, error) {
	buf := bytes.NewBuffer(dst)
	if err := deflateTo(buf, src); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// Encode implements Codec.
func (*Flate) Encode(vals []float64) ([]byte, error) {
	var out bytes.Buffer
	hdr := make([]byte, 0, 16)
	hdr = binary.LittleEndian.AppendUint32(hdr, flateMagic)
	hdr = binary.AppendUvarint(hdr, uint64(len(vals)))
	out.Write(hdr)
	scratch := getByteScratch()
	defer putByteScratch(scratch)
	raw := floatsToBytesInto((*scratch)[:0], vals)
	*scratch = raw
	if err := deflateTo(&out, raw); err != nil {
		return nil, fmt.Errorf("compress: flate: %w", err)
	}
	return out.Bytes(), nil
}

// DecodeInto implements Codec. The inflated byte image lives in a pooled
// scratch buffer; only the float output (and only when dst is too small)
// allocates.
func (*Flate) DecodeInto(dst []float64, data []byte) ([]float64, error) {
	if len(data) < 4 || binary.LittleEndian.Uint32(data) != flateMagic {
		return nil, errors.New("compress: bad flate magic")
	}
	off := 4
	count, n := binary.Uvarint(data[off:])
	if n <= 0 {
		return nil, errors.New("compress: truncated flate header")
	}
	off += n
	scratch := getByteScratch()
	defer putByteScratch(scratch)
	raw, err := InflateAppend((*scratch)[:0], data[off:])
	if err != nil {
		return nil, fmt.Errorf("compress: inflate: %w", err)
	}
	*scratch = raw
	vals, err := bytesToFloatsInto(dst, raw)
	if err != nil {
		return nil, err
	}
	if uint64(len(vals)) != count {
		return nil, fmt.Errorf("compress: flate count mismatch: header %d, payload %d", count, len(vals))
	}
	return vals, nil
}
