package compress

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/engine"
)

// Chunked-container benchmarks: encode and decode of one large product
// through the v2 frame, per codec and worker count (`go test -bench
// Chunked ./internal/compress`). On a single-core box the worker sweep
// shows the (small) framing overhead; the speedup column only separates on
// multi-core hardware, while allocs/op — the other half of the
// intra-product optimization — is hardware-independent.

const benchValues = 1 << 18 // 256 Ki float64, 2 MiB raw

func benchCodecs(b *testing.B) []Codec {
	b.Helper()
	z, err := NewZFP(1e-6)
	if err != nil {
		b.Fatal(err)
	}
	return []Codec{z, NewFPC(16), Raw{}}
}

func BenchmarkChunkedEncode(b *testing.B) {
	ctx := context.Background()
	vals := smoothSignal(benchValues, 42)
	for _, c := range benchCodecs(b) {
		for _, workers := range []int{1, 4} {
			pool := engine.NewPool(workers)
			b.Run(fmt.Sprintf("codec=%s/workers=%d", c.Name(), workers), func(b *testing.B) {
				b.ReportAllocs()
				b.SetBytes(8 * benchValues)
				for i := 0; i < b.N; i++ {
					if _, err := ChunkedEncode(ctx, pool, c, vals, DefaultChunkSize); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

func BenchmarkChunkedDecode(b *testing.B) {
	ctx := context.Background()
	vals := smoothSignal(benchValues, 42)
	for _, c := range benchCodecs(b) {
		frame, err := ChunkedEncode(ctx, nil, c, vals, DefaultChunkSize)
		if err != nil {
			b.Fatal(err)
		}
		for _, workers := range []int{1, 4} {
			pool := engine.NewPool(workers)
			b.Run(fmt.Sprintf("codec=%s/workers=%d", c.Name(), workers), func(b *testing.B) {
				dst := make([]float64, benchValues)
				b.ReportAllocs()
				b.SetBytes(8 * benchValues)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := ChunkedDecodeInto(ctx, pool, c, dst, frame); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkV1Decode is the unframed baseline the chunked decode competes
// against: same codec, same values, one serial bitstream.
func BenchmarkV1Decode(b *testing.B) {
	vals := smoothSignal(benchValues, 42)
	for _, c := range benchCodecs(b) {
		enc, err := c.Encode(vals)
		if err != nil {
			b.Fatal(err)
		}
		b.Run("codec="+c.Name(), func(b *testing.B) {
			dst := make([]float64, benchValues)
			b.ReportAllocs()
			b.SetBytes(8 * benchValues)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := c.DecodeInto(dst, enc); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
