package core

import (
	"bytes"
	"encoding/binary"
	"testing"
)

// decodeChunkPayload materializes the id list of a chunk payload.
func decodeChunkPayload(data []byte) (ids []int32, enc []byte, err error) {
	runs, total, enc, err := parseChunkPayload(data, nil)
	if err != nil {
		return nil, nil, err
	}
	ids = make([]int32, 0, total)
	for _, r := range runs {
		for j := int64(0); j < r.n; j++ {
			ids = append(ids, int32(r.start+j))
		}
	}
	return ids, enc, nil
}

// sortedIDs turns fuzz bytes into a strictly increasing id set: each byte
// advances the id by 1 to 4, so contiguous runs and gaps both occur.
func sortedIDs(data []byte) []int32 {
	ids := make([]int32, 0, len(data))
	id := int32(-1)
	for _, b := range data {
		id += 1 + int32(b%4)
		ids = append(ids, id)
	}
	return ids
}

// FuzzChunkPayload hardens the one-pass tile decode: a chunkPayload of a
// chunkHeader round-trips any sorted id set exactly, and arbitrary bytes either fail to
// parse or yield runs that cover exactly the reported id count, stay within
// the id cap, and scatter into any output without panicking.
func FuzzChunkPayload(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 1, 2, 3})
	f.Add(chunkPayload(chunkHeader([]int32{10, 11, 12, 50, 51, 99}), []byte{9, 8, 7}))
	f.Add(chunkPayload(chunkHeader([]int32{3}), nil))
	// Ids past any plausible output, and a start that overflows int64
	// when its run length is added.
	f.Add(append(binary.AppendVarint(binary.AppendUvarint(nil, 1), 1<<62), 4, 0))
	f.Add(append(binary.AppendVarint(binary.AppendUvarint(nil, 1), 1<<63-1), 2, 0))
	f.Fuzz(func(t *testing.T, data []byte) {
		ids := sortedIDs(data)
		got, enc, err := decodeChunkPayload(chunkPayload(chunkHeader(ids), data))
		if err != nil {
			t.Fatalf("decode of a fresh encoding: %v", err)
		}
		if len(got) != len(ids) || !bytes.Equal(enc, data) {
			t.Fatalf("round trip gave %d ids and %d value bytes, want %d and %d", len(got), len(enc), len(ids), len(data))
		}
		for i := range ids {
			if got[i] != ids[i] {
				t.Fatalf("round trip id %d = %d, want %d", i, got[i], ids[i])
			}
		}

		runs, total, enc, err := parseChunkPayload(data, nil)
		if err != nil {
			return
		}
		if len(enc) > len(data) {
			t.Fatalf("%d value bytes from a %d-byte payload", len(enc), len(data))
		}
		if total > len(data)*8+64 {
			t.Fatalf("%d ids from a %d-byte payload", total, len(data))
		}
		sum := int64(0)
		for _, r := range runs {
			if r.start < 0 || r.n < 0 {
				t.Fatalf("run (%d, %d)", r.start, r.n)
			}
			sum += r.n
		}
		if sum != int64(total) {
			t.Fatalf("runs cover %d ids, reported %d", sum, total)
		}
		vals := make([]float64, total)
		for i := range vals {
			vals[i] = float64(i + 1)
		}
		for _, n := range []int{0, 1, 64, total + 8} {
			out, have := make([]float64, n), make([]bool, n)
			if _, ok := scatterRuns(runs, vals, out, have); !ok {
				continue
			}
			for _, r := range runs {
				for id := r.start; id < r.start+r.n; id++ {
					if !have[id] || out[id] == 0 {
						t.Fatalf("id %d covered by a run but not scattered", id)
					}
				}
			}
		}
	})
}
