package delta

import (
	"encoding/binary"
	"testing"

	"repro/internal/decimate"
	"repro/internal/mesh"
)

var (
	// oversizedCount claims 40 entries and carries three: a count within
	// ten times the payload, which a per-byte-ratio guard would allocate.
	oversizedCount = append(binary.AppendUvarint(nil, 40), 2, 2, 2)
	// wrappingIndex holds one entry whose index is 2^32+5.
	wrappingIndex = binary.AppendVarint(binary.AppendUvarint(nil, 1), 1<<32+5)
)

// FuzzDecodeMapping hardens the mapping decoder against corrupt tier
// contents: every input either fails or decodes to a mapping that the
// bytes paid for, with non-negative int32 indices, and that re-encodes and
// decodes back to itself exactly.
func FuzzDecodeMapping(f *testing.F) {
	for _, shape := range []struct {
		m     *mesh.Mesh
		ratio float64
	}{
		{mesh.Rect(12, 12, 1, 1), 4},
		{mesh.Disk(8, 32, 1), 2},
	} {
		data := field(shape.m, wave)
		res, err := decimate.Decimate(shape.m, data, decimate.TargetForRatio(shape.m.NumVerts(), shape.ratio), decimate.Options{})
		if err != nil {
			f.Fatal(err)
		}
		mp, err := Build(shape.m, res.Coarse)
		if err != nil {
			f.Fatal(err)
		}
		enc := mp.Encode()
		f.Add(enc)
		f.Add(enc[:len(enc)-1]) // truncated inside the last entry
	}
	f.Add(Mapping{}.Encode())
	f.Add(oversizedCount)
	f.Add(wrappingIndex)
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		mp, n, err := DecodeMapping(data)
		if err != nil {
			return
		}
		if n < 1 || n > len(data) {
			t.Fatalf("consumed %d of %d bytes", n, len(data))
		}
		// One count byte at least, then one byte per entry at least.
		if len(mp) > n-1 {
			t.Fatalf("%d bytes decoded to %d entries", n, len(mp))
		}
		for i, ti := range mp {
			if ti < 0 {
				t.Fatalf("entry %d = %d", i, ti)
			}
		}
		enc := mp.Encode()
		got, m, err := DecodeMapping(append(enc, data...))
		if err != nil {
			t.Fatalf("decode of a fresh encoding: %v", err)
		}
		if m != len(enc) {
			t.Fatalf("consumed %d of a %d-byte encoding", m, len(enc))
		}
		if len(got) != len(mp) {
			t.Fatalf("round trip gave %d entries, want %d", len(got), len(mp))
		}
		for i := range mp {
			if got[i] != mp[i] {
				t.Fatalf("round trip entry %d = %d, want %d", i, got[i], mp[i])
			}
		}
	})
}
