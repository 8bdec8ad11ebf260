package compress

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"

	"repro/internal/engine"
	"repro/internal/obs"
)

// This file implements the v2 chunked container: a product's values are
// split into fixed-size chunks, each chunk is encoded as an independent
// bitstream with the underlying codec, and a small header records per-chunk
// encoded lengths so decode can seek to any chunk without parsing its
// neighbors. Independence is what buys intra-product parallelism — the
// paper's read-path decomposition stops at whole products, which leaves a
// single large product's decompress phase serial; chunking pushes the
// "embarrassingly parallel" boundary inside the product.
//
// Frame layout (all integers little-endian or uvarint):
//
//	u32      magic "CCK2"
//	uvarint  total value count
//	uvarint  chunk size (values per chunk; last chunk may be short)
//	uvarint  nChunks (must equal ceil(total/chunkSize))
//	uvarint  encoded length of each chunk, nChunks times
//	bytes    concatenated chunk bitstreams (lengths must sum exactly)
//
// ChunkedEncode returns a plain v1 codec stream when the input fits in one
// chunk, so small products (delta tiles, coarse levels) pay zero framing
// overhead, and readers must sniff: ChunkedDecodeInto falls back to the
// plain codec when the magic is absent. The raw codec is the one v1 format
// with no magic of its own; a raw v1 payload whose first 4 bytes collide
// with "CCK2" (probability 2^-32 on float data) fails the strict header
// validation below and is rejected loudly rather than misread.
//
// Chunk bitstreams are assembled in index order regardless of which worker
// encoded them, so the stored bytes are identical at every worker count.

const (
	chunkedMagic = 0x324b4343 // "CCK2"
	// DefaultChunkSize is the values-per-chunk used when callers pass
	// chunkSize <= 0. 4096 float64s (32 KiB raw) amortizes per-chunk codec
	// headers to <1% while leaving enough chunks per product to occupy a
	// pool.
	DefaultChunkSize = 4096
)

// IsChunkedFrame reports whether data starts with the v2 container magic.
// It is a sniff, not a validation — ChunkedDecodeInto still rejects frames
// whose headers do not check out.
func IsChunkedFrame(data []byte) bool {
	return len(data) >= 4 && binary.LittleEndian.Uint32(data) == chunkedMagic
}

// ChunkedEncode compresses vals with c inside the v2 chunked container.
// Inputs that fit in a single chunk are returned as a plain v1 codec stream
// with no framing. chunkSize <= 0 selects DefaultChunkSize. Chunks are
// encoded concurrently on pool (serially when it is nil) but assembled in
// order, so the output is byte-identical at every worker count.
func ChunkedEncode(ctx context.Context, pool *engine.Pool, c Codec, vals []float64, chunkSize int) ([]byte, error) {
	if chunkSize <= 0 {
		chunkSize = DefaultChunkSize
	}
	if len(vals) <= chunkSize {
		return c.Encode(vals)
	}
	nChunks := (len(vals) + chunkSize - 1) / chunkSize
	encs := make([][]byte, nChunks)
	err := pool.RunRange(ctx, nChunks, func(start, end int) error {
		for i := start; i < end; i++ {
			lo := i * chunkSize
			hi := lo + chunkSize
			if hi > len(vals) {
				hi = len(vals)
			}
			enc, err := c.Encode(vals[lo:hi])
			if err != nil {
				return fmt.Errorf("compress: chunked frame chunk %d/%d: %w", i, nChunks, err)
			}
			encs[i] = enc
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	size := 4 + 3*binary.MaxVarintLen64
	for _, e := range encs {
		size += binary.MaxVarintLen64 + len(e)
	}
	out := make([]byte, 0, size)
	out = binary.LittleEndian.AppendUint32(out, chunkedMagic)
	out = binary.AppendUvarint(out, uint64(len(vals)))
	out = binary.AppendUvarint(out, uint64(chunkSize))
	out = binary.AppendUvarint(out, uint64(nChunks))
	for _, e := range encs {
		out = binary.AppendUvarint(out, uint64(len(e)))
	}
	for _, e := range encs {
		out = append(out, e...)
	}
	return out, nil
}

// ChunkedDecodeInto reverses ChunkedEncode, reusing dst like
// Codec.DecodeInto (dst may be nil): framed payloads decode chunk-wise
// (concurrently on pool; a nil pool runs serially), plain v1 payloads fall
// through to c.DecodeInto. Each chunk decodes directly into its slot of the
// output slice, so a framed decode performs no per-chunk output
// allocations, and results are bit-identical at every worker count.
func ChunkedDecodeInto(ctx context.Context, pool *engine.Pool, c Codec, dst []float64, data []byte) ([]float64, error) {
	if !IsChunkedFrame(data) {
		return c.DecodeInto(dst, data)
	}
	total, chunkSize, lens, payload, err := parseChunkedHeader(data)
	if err != nil {
		return nil, err
	}
	nChunks := len(lens)
	span := obs.FromContext(ctx).Child("compress.chunked_decode")
	span.SetAttrInt("chunks", nChunks)
	span.SetAttrInt("values", total)
	defer span.End()

	// Prefix-sum the chunk lengths once so workers can seek independently.
	offs := make([]int, nChunks+1)
	for i, l := range lens {
		offs[i+1] = offs[i] + l
	}
	out := sizeFloats(dst, total)
	err = pool.RunRange(ctx, nChunks, func(start, end int) error {
		for i := start; i < end; i++ {
			lo := i * chunkSize
			hi := lo + chunkSize
			if hi > total {
				hi = total
			}
			// Three-index subslice: a corrupt chunk that claims more values
			// than its slot forces the codec to allocate instead of stomping
			// the neighbor chunk, and the count check below rejects it.
			sub := out[lo:hi:hi]
			got, err := c.DecodeInto(sub, payload[offs[i]:offs[i+1]])
			if err != nil {
				return fmt.Errorf("compress: chunked frame chunk %d/%d: %w", i, nChunks, err)
			}
			if len(got) != hi-lo {
				return fmt.Errorf("compress: chunked frame chunk %d/%d: decoded %d values, want %d", i, nChunks, len(got), hi-lo)
			}
			if &got[0] != &sub[0] {
				copy(sub, got)
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// parseChunkedHeader validates the v2 frame exhaustively: the chunk count
// must match ceil(total/chunkSize) and the encoded lengths must sum to
// exactly the remaining bytes. The strictness is what makes magic collision
// with an unframed raw payload a loud error instead of silent corruption.
func parseChunkedHeader(data []byte) (total, chunkSize int, lens []int, payload []byte, err error) {
	off := 4
	totalU, n := binary.Uvarint(data[off:])
	if n <= 0 {
		return 0, 0, nil, nil, errors.New("compress: truncated chunked header (total)")
	}
	off += n
	chunkU, n := binary.Uvarint(data[off:])
	if n <= 0 {
		return 0, 0, nil, nil, errors.New("compress: truncated chunked header (chunk size)")
	}
	off += n
	nChunksU, n := binary.Uvarint(data[off:])
	if n <= 0 {
		return 0, 0, nil, nil, errors.New("compress: truncated chunked header (chunk count)")
	}
	off += n
	if chunkU == 0 {
		return 0, 0, nil, nil, errors.New("compress: chunked frame has zero chunk size")
	}
	if totalU > uint64(len(data))*64 {
		return 0, 0, nil, nil, fmt.Errorf("compress: implausible chunked value count %d", totalU)
	}
	want := (totalU + chunkU - 1) / chunkU
	if nChunksU != want || nChunksU == 0 {
		return 0, 0, nil, nil, fmt.Errorf("compress: chunked frame count mismatch: %d chunks for %d values of chunk size %d", nChunksU, totalU, chunkU)
	}
	lens = make([]int, nChunksU)
	sum := uint64(0)
	for i := range lens {
		l, n := binary.Uvarint(data[off:])
		if n <= 0 {
			return 0, 0, nil, nil, fmt.Errorf("compress: truncated chunked header (length %d/%d)", i, nChunksU)
		}
		off += n
		if l > uint64(len(data)) {
			return 0, 0, nil, nil, fmt.Errorf("compress: implausible chunk length %d", l)
		}
		lens[i] = int(l)
		sum += l
	}
	if sum != uint64(len(data)-off) {
		return 0, 0, nil, nil, fmt.Errorf("compress: chunked frame length mismatch: chunks sum to %d bytes, %d remain", sum, len(data)-off)
	}
	return int(totalU), int(chunkU), lens, data[off:], nil
}
