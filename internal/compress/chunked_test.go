package compress

import (
	"bytes"
	"context"
	"encoding/binary"
	"math"
	"testing"

	"repro/internal/engine"
)

// allCodecs returns every codec the chunked container must wrap. Lossy
// codecs are included: chunking must commute with their per-chunk streams
// bit-exactly, even though the values themselves are approximate.
func allCodecs(t *testing.T) []Codec {
	t.Helper()
	return append(lossyCodecs(t, 1e-6), losslessCodecs()...)
}

// v1ChunkwiseDecode is the reference semantics of a v2 frame: encode each
// chunk independently with the plain codec, decode it back, concatenate.
// ChunkedDecodeInto of a ChunkedEncode frame must match it bit-exactly.
func v1ChunkwiseDecode(t *testing.T, c Codec, vals []float64, chunkSize int) []float64 {
	t.Helper()
	out := make([]float64, 0, len(vals))
	for lo := 0; lo < len(vals); lo += chunkSize {
		hi := lo + chunkSize
		if hi > len(vals) {
			hi = len(vals)
		}
		enc, err := c.Encode(vals[lo:hi])
		if err != nil {
			t.Fatalf("%s: v1 encode chunk at %d: %v", c.Name(), lo, err)
		}
		dec, err := c.DecodeInto(nil, enc)
		if err != nil {
			t.Fatalf("%s: v1 decode chunk at %d: %v", c.Name(), lo, err)
		}
		out = append(out, dec...)
	}
	return out
}

func bitEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

func TestChunkedRoundTrip(t *testing.T) {
	ctx := context.Background()
	sizes := []int{1, 7, 64, 1000, 4096}
	counts := []int{0, 1, 63, 64, 65, 1000, 5000}
	for _, c := range allCodecs(t) {
		for _, cs := range sizes {
			for _, n := range counts {
				vals := smoothSignal(n, int64(n+cs))
				frame, err := ChunkedEncode(ctx, nil, c, vals, cs)
				if err != nil {
					t.Fatalf("%s cs=%d n=%d: encode: %v", c.Name(), cs, n, err)
				}
				got, err := ChunkedDecodeInto(ctx, nil, c, nil, frame)
				if err != nil {
					t.Fatalf("%s cs=%d n=%d: decode: %v", c.Name(), cs, n, err)
				}
				want := v1ChunkwiseDecode(t, c, vals, cs)
				if !bitEqual(got, want) {
					t.Fatalf("%s cs=%d n=%d: framed decode differs from chunk-wise v1 decode", c.Name(), cs, n)
				}
				if n <= cs {
					if IsChunkedFrame(frame) && n > 0 {
						t.Fatalf("%s cs=%d n=%d: single-chunk input was framed", c.Name(), cs, n)
					}
				} else if !IsChunkedFrame(frame) {
					t.Fatalf("%s cs=%d n=%d: multi-chunk input was not framed", c.Name(), cs, n)
				}
			}
		}
	}
}

// TestChunkedWorkerInvariance pins the determinism contract: stored frames
// are byte-identical and decoded values bit-identical at every worker count.
func TestChunkedWorkerInvariance(t *testing.T) {
	ctx := context.Background()
	vals := smoothSignal(50000, 7)
	pools := []*engine.Pool{nil, engine.NewPool(1), engine.NewPool(3), engine.NewPool(8)}
	for _, c := range allCodecs(t) {
		var refFrame []byte
		var refVals []float64
		for pi, pool := range pools {
			frame, err := ChunkedEncode(ctx, pool, c, vals, 1024)
			if err != nil {
				t.Fatalf("%s pool %d: encode: %v", c.Name(), pi, err)
			}
			dec, err := ChunkedDecodeInto(ctx, pool, c, nil, frame)
			if err != nil {
				t.Fatalf("%s pool %d: decode: %v", c.Name(), pi, err)
			}
			if pi == 0 {
				refFrame, refVals = frame, dec
				continue
			}
			if !bytes.Equal(frame, refFrame) {
				t.Fatalf("%s pool %d: frame bytes differ from serial encode", c.Name(), pi)
			}
			if !bitEqual(dec, refVals) {
				t.Fatalf("%s pool %d: decoded values differ from serial decode", c.Name(), pi)
			}
		}
	}
}

// TestChunkedTypedNilPool verifies the documented claim that a nil
// *engine.Pool runs serially.
func TestChunkedTypedNilPool(t *testing.T) {
	ctx := context.Background()
	var pool *engine.Pool
	vals := smoothSignal(9000, 3)
	frame, err := ChunkedEncode(ctx, pool, Raw{}, vals, 2048)
	if err != nil {
		t.Fatal(err)
	}
	got, err := ChunkedDecodeInto(ctx, pool, Raw{}, nil, frame)
	if err != nil {
		t.Fatal(err)
	}
	if !bitEqual(got, vals) {
		t.Fatal("typed-nil pool round trip mismatch")
	}
}

// TestChunkedV1Fallback: plain v1 payloads must decode through ChunkedDecodeInto
// bit-exactly as through the codec itself — old containers keep working.
func TestChunkedV1Fallback(t *testing.T) {
	ctx := context.Background()
	vals := smoothSignal(3000, 11)
	for _, c := range allCodecs(t) {
		enc, err := c.Encode(vals)
		if err != nil {
			t.Fatalf("%s: %v", c.Name(), err)
		}
		want, err := c.DecodeInto(nil, enc)
		if err != nil {
			t.Fatalf("%s: %v", c.Name(), err)
		}
		got, err := ChunkedDecodeInto(ctx, nil, c, nil, enc)
		if err != nil {
			t.Fatalf("%s: ChunkedDecodeInto of v1 payload: %v", c.Name(), err)
		}
		if !bitEqual(got, want) {
			t.Fatalf("%s: v1 fallback decode differs from codec decode", c.Name())
		}
	}
}

func TestChunkedDecodeIntoReuse(t *testing.T) {
	ctx := context.Background()
	vals := smoothSignal(20000, 5)
	frame, err := ChunkedEncode(ctx, nil, Raw{}, vals, 1024)
	if err != nil {
		t.Fatal(err)
	}
	dst := make([]float64, 0, len(vals))
	got, err := ChunkedDecodeInto(ctx, nil, Raw{}, dst, frame)
	if err != nil {
		t.Fatal(err)
	}
	if &got[0] != &dst[:1][0] {
		t.Fatal("DecodeInto did not reuse the provided backing array")
	}
	if !bitEqual(got, vals) {
		t.Fatal("round trip mismatch")
	}
}

// TestChunkedCorruptFrames: malformed v2 frames must be rejected with an
// error, never a panic or silent misread.
func TestChunkedCorruptFrames(t *testing.T) {
	ctx := context.Background()
	vals := smoothSignal(10000, 9)
	frame, err := ChunkedEncode(ctx, nil, Raw{}, vals, 1024)
	if err != nil {
		t.Fatal(err)
	}
	if !IsChunkedFrame(frame) {
		t.Fatal("expected framed output")
	}

	// Every truncation point in the header region plus a sample of payload
	// truncations must error (the magic alone survives truncation to < 4
	// bytes: that is a v1 fallback, exercised separately).
	for cut := 4; cut < 64 && cut < len(frame); cut++ {
		if _, err := ChunkedDecodeInto(ctx, nil, Raw{}, nil, frame[:cut]); err == nil {
			t.Fatalf("truncation to %d bytes decoded successfully", cut)
		}
	}
	for _, cut := range []int{len(frame) - 1, len(frame) - 100, len(frame) / 2} {
		if _, err := ChunkedDecodeInto(ctx, nil, Raw{}, nil, frame[:cut]); err == nil {
			t.Fatalf("truncation to %d bytes decoded successfully", cut)
		}
	}

	mutate := func(fn func(b []byte)) []byte {
		b := bytes.Clone(frame)
		fn(b)
		return b
	}
	cases := map[string][]byte{
		// Zero chunk size (total uvarint for 10000 values is 2 bytes).
		"zero chunk size": mutate(func(b []byte) { b[6] = 0 }),
		// Chunk count that disagrees with ceil(total/chunkSize).
		"count mismatch": mutate(func(b []byte) { b[8]++ }),
		// First chunk length inflated: sum no longer matches payload.
		"length mismatch": mutate(func(b []byte) { b[9]++ }),
	}
	for name, b := range cases {
		if _, err := ChunkedDecodeInto(ctx, nil, Raw{}, nil, b); err == nil {
			t.Fatalf("%s: corrupt frame decoded successfully", name)
		}
	}

	// A frame whose chunk bitstreams decode to the wrong count (raw payload
	// truncated by 8 bytes with the header length patched to match) must be
	// caught by the per-chunk decode or count check.
	total, chunkSize, lens, _, err := parseChunkedHeader(frame)
	if err != nil {
		t.Fatal(err)
	}
	// Rebuild the frame with a shortened last chunk length.
	var hdr []byte
	hdr = binary.LittleEndian.AppendUint32(hdr, chunkedMagic)
	hdr = binary.AppendUvarint(hdr, uint64(total))
	hdr = binary.AppendUvarint(hdr, uint64(chunkSize))
	hdr = binary.AppendUvarint(hdr, uint64(len(lens)))
	for i, l := range lens {
		if i == len(lens)-1 {
			l -= 8
		}
		hdr = binary.AppendUvarint(hdr, uint64(l))
	}
	payloadStart := len(frame) - func() int {
		s := 0
		for _, l := range lens {
			s += l
		}
		return s
	}()
	bad := append(hdr, frame[payloadStart:len(frame)-8]...)
	if _, err := ChunkedDecodeInto(ctx, nil, Raw{}, nil, bad); err == nil {
		t.Fatal("frame with short last chunk decoded successfully")
	}
}

// TestChunkedDecodeIntoAllocs guards the allocation diet on the hot decode
// path: with a pre-sized destination, a framed raw decode allocates only the
// header-derived slices (lengths, offsets) — a small constant independent of
// the value count.
func TestChunkedDecodeIntoAllocs(t *testing.T) {
	ctx := context.Background()
	vals := smoothSignal(65536, 13)
	frame, err := ChunkedEncode(ctx, nil, Raw{}, vals, 4096)
	if err != nil {
		t.Fatal(err)
	}
	dst := make([]float64, len(vals))
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := ChunkedDecodeInto(ctx, nil, Raw{}, dst, frame); err != nil {
			t.Fatal(err)
		}
	})
	// lens + offs + a couple of interface/header temporaries. The bound is
	// deliberately loose on the constant but must not scale with 64Ki values
	// (which would add thousands).
	if allocs > 8 {
		t.Fatalf("ChunkedDecodeInto allocates %.0f objects per framed raw decode, want <= 8", allocs)
	}
}

// TestCodecDecodeIntoAllocs guards the per-codec DecodeInto fast paths: with
// a pre-sized destination the lossless codecs must not allocate per value.
func TestCodecDecodeIntoAllocs(t *testing.T) {
	vals := smoothSignal(16384, 17)
	for _, c := range losslessCodecs() {
		enc, err := c.Encode(vals)
		if err != nil {
			t.Fatalf("%s: %v", c.Name(), err)
		}
		dst := make([]float64, len(vals))
		allocs := testing.AllocsPerRun(20, func() {
			if _, err := c.DecodeInto(dst, enc); err != nil {
				t.Fatal(err)
			}
		})
		// Pooled scratch means steady-state decode touches no per-value
		// allocations; allow a small constant for pool round trips.
		if allocs > 8 {
			t.Fatalf("%s DecodeInto allocates %.0f objects per decode of 16Ki values, want <= 8", c.Name(), allocs)
		}
	}
}

func FuzzChunkedRoundTrip(f *testing.F) {
	f.Add(make([]byte, 16), uint16(1))
	f.Add(make([]byte, 800), uint16(7))
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8}, uint16(0))
	f.Fuzz(func(t *testing.T, raw []byte, chunk uint16) {
		n := len(raw) / 8
		vals := make([]float64, n)
		for i := 0; i < n; i++ {
			v := math.Float64frombits(binary.LittleEndian.Uint64(raw[8*i:]))
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return
			}
			vals[i] = v
		}
		ctx := context.Background()
		chunkSize := int(chunk)
		for _, c := range []Codec{Raw{}, NewFPC(8), NewFlate()} {
			frame, err := ChunkedEncode(ctx, nil, c, vals, chunkSize)
			if err != nil {
				t.Fatalf("%s: encode: %v", c.Name(), err)
			}
			got, err := ChunkedDecodeInto(ctx, nil, c, nil, frame)
			if err != nil {
				t.Fatalf("%s: decode: %v", c.Name(), err)
			}
			if !bitEqual(got, vals) {
				t.Fatalf("%s: lossless chunked round trip not bit-exact", c.Name())
			}
		}
	})
}

// FuzzChunkedDecode feeds arbitrary bytes to the framed decoder: it must
// reject or decode without panicking, for every codec, like the v1 targets.
func FuzzChunkedDecode(f *testing.F) {
	seedCorpus(f)
	ctx := context.Background()
	z, _ := NewZFP(1e-3)
	sz, _ := NewSZ(1e-3)
	codecs := []Codec{Raw{}, NewFPC(8), NewFlate(), z, sz}
	frame, _ := ChunkedEncode(ctx, nil, Raw{}, smoothSignal(300, 1), 64)
	f.Add(frame)
	f.Add(frame[:len(frame)-5])
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, c := range codecs {
			vals, err := ChunkedDecodeInto(ctx, nil, c, nil, data)
			if err == nil && len(vals) > len(data)*64+64 {
				t.Fatalf("%s: decoded %d values from %d bytes", c.Name(), len(vals), len(data))
			}
		}
	})
}
