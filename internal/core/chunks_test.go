package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"slices"
	"strings"
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

// parseChunkPayloadRef is the varint-only parser parseChunkPayload
// replaced, kept as the reference its one-byte fast path and tighter
// run-count bound must agree with: same error-or-not, same runs, id count
// and value bytes on any input.
func parseChunkPayloadRef(data []byte) ([]idRun, int, []byte, error) {
	var runs []idRun
	nRuns, off := binary.Uvarint(data)
	if off <= 0 {
		return runs, 0, nil, errChunkTrunc
	}
	if nRuns > uint64(len(data)) {
		return runs, 0, nil, fmt.Errorf("canopus: implausible chunk run count %d", nRuns)
	}
	prev := int64(0)
	maxIDs := uint64(len(data))*8 + 64
	var total uint64
	for i := uint64(0); i < nRuns; i++ {
		d, n := binary.Varint(data[off:])
		if n <= 0 {
			return runs, 0, nil, errChunkTrunc
		}
		off += n
		start := prev + d
		length, n := binary.Uvarint(data[off:])
		if n <= 0 {
			return runs, 0, nil, errChunkTrunc
		}
		off += n
		total += length
		if start < 0 || total > maxIDs {
			return runs, 0, nil, fmt.Errorf("canopus: invalid chunk run (%d, %d)", start, length)
		}
		runs = append(runs, idRun{start, int64(length)})
		prev = start
	}
	encLen, n := binary.Uvarint(data[off:])
	if n <= 0 {
		return runs, 0, nil, errChunkTrunc
	}
	off += n
	if uint64(len(data)-off) < encLen {
		return runs, 0, nil, errChunkTrunc
	}
	return runs, int(total), data[off : off+int(encLen)], nil
}

// TestChunkRunCountBound pins the run-count plausibility bound: every run
// takes at least two bytes, so a count one over half the bytes after it is
// refused up front, while the count at the bound gets as far as the
// truncation check.
func TestChunkRunCountBound(t *testing.T) {
	runs := bytes.Repeat([]byte{2, 1}, 5) // five (delta 1, length 1) runs
	over := append(binary.AppendUvarint(nil, 6), runs...)
	if _, _, _, err := parseChunkPayload(over, nil); err == nil || !strings.Contains(err.Error(), "implausible chunk run count 6") {
		t.Fatalf("6 runs in 10 bytes: err %v, want implausible chunk run count", err)
	}
	at := append(binary.AppendUvarint(nil, 5), runs...)
	if _, _, _, err := parseChunkPayload(at, nil); err != errChunkTrunc {
		t.Fatalf("5 runs in 10 bytes with no value length: err %v, want %v", err, errChunkTrunc)
	}
	got, total, enc, err := parseChunkPayload(append(at, 0), nil)
	if err != nil || total != 5 || len(got) != 5 || len(enc) != 0 {
		t.Fatalf("5 runs in 10 bytes: %d runs, %d ids, %d value bytes, err %v", len(got), total, len(enc), err)
	}
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
// the id cap, and scatter into any output without panicking. On any bytes
// the parser agrees with the varint-only reference parseChunkPayloadRef.
func FuzzChunkPayload(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 1, 2, 3})
	f.Add(chunkPayload(chunkHeader([]int32{10, 11, 12, 50, 51, 99}), []byte{9, 8, 7}))
	f.Add(chunkPayload(chunkHeader([]int32{3}), nil))
	// Ids past any plausible output, and a start that overflows int64
	// when its run length is added.
	f.Add(append(binary.AppendVarint(binary.AppendUvarint(nil, 1), 1<<62), 4, 0))
	f.Add(append(binary.AppendVarint(binary.AppendUvarint(nil, 1), 1<<63-1), 2, 0))
	// One-byte and multi-byte varints mixed within a run and across runs,
	// a run count one over the plausibility bound, and negative deltas
	// into and within range.
	f.Add(chunkPayload(chunkHeader([]int32{0, 1, 2, 300, 301, 302, 303, 304, 100000}), []byte{1}))
	f.Add([]byte{3, 2, 0x81, 0x01, 0x03, 1, 0x82, 0x01, 0})
	f.Add([]byte{3, 2, 1, 2, 1})
	f.Add([]byte{2, 20, 1, 5, 1, 0})
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
		refRuns, refTotal, refEnc, refErr := parseChunkPayloadRef(data)
		if (err != nil) != (refErr != nil) {
			t.Fatalf("parse err %v, reference err %v", err, refErr)
		}
		if err != nil {
			return
		}
		if !slices.Equal(runs, refRuns) || total != refTotal || !bytes.Equal(enc, refEnc) {
			t.Fatalf("parse gave runs %v, %d ids, value bytes %x; reference %v, %d, %x", runs, total, enc, refRuns, refTotal, refEnc)
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
