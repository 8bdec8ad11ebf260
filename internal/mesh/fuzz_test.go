package mesh

import (
	"encoding/binary"
	"math"
	"testing"
)

// FuzzDecode hardens the mesh decoder against corrupt tier contents, in both
// format versions.
func FuzzDecode(f *testing.F) {
	rect, annulus := Encode(Rect(3, 3, 1, 1)), Encode(jitter(Annulus(4, 24, 0.3, 1)))
	f.Add(rect)
	f.Add(annulus)
	f.Add(Encode(&Mesh{}))
	f.Add(annulus[:len(annulus)-7]) // truncated inside the last plane
	// A plane that inflates long: the header claims one vertex fewer than
	// the planes hold.
	long := append([]byte(nil), rect[:6]...)
	long = binary.AppendUvarint(long, 8)
	long = append(long, rect[7:]...)
	f.Add(long)
	f.Add(appendEncodeV1(nil, Rect(3, 3, 1, 1)))
	f.Add(appendEncodeV1(nil, &Mesh{}))
	f.Add([]byte{})
	f.Add([]byte{0x43, 0x4d, 0x53, 0x48, 1, 0}) // magic + version 1, no body
	f.Add([]byte{0x43, 0x4d, 0x53, 0x48, 2, 0}) // magic + version 2, no body
	f.Add(make([]byte, 128))
	f.Fuzz(func(t *testing.T, data []byte) {
		m, n, err := Decode(data)
		if err != nil {
			return
		}
		if n > len(data) {
			t.Fatalf("consumed %d of %d bytes", n, len(data))
		}
		// Whatever decodes was paid for: no count exceeds what the bytes
		// could inflate to.
		if limit := maxInflateRatio * len(data); len(m.Verts) > limit || len(m.Tris) > limit {
			t.Fatalf("%d bytes decoded to %d verts %d tris", len(data), len(m.Verts), len(m.Tris))
		}
		// A successfully decoded mesh must be structurally indexable:
		// every triangle references valid vertices (Validate may still
		// reject duplicates, which is fine).
		for _, tr := range m.Tris {
			for _, v := range tr {
				if v < 0 || int(v) >= len(m.Verts) {
					t.Fatalf("decoded triangle references vertex %d of %d", v, len(m.Verts))
				}
			}
		}
	})
}

// FuzzEncodeDecodeRoundTrip builds a mesh from the fuzzer's bytes — any
// float64 bit pattern as a coordinate, any in-range index — and requires
// Decode(Encode(m)) to give it back bit for bit and to consume exactly the
// encoding.
func FuzzEncodeDecodeRoundTrip(f *testing.F) {
	f.Add([]byte{}, uint8(0))
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0x80, 0, 0, 0, 0, 0, 0, 0xf0, 0x7f}, uint8(3)) // -0, +Inf
	f.Add([]byte{0xef, 0xbe, 0, 0, 0xad, 0xde, 0xf8, 0x7f, 0, 0, 0, 0, 0, 0, 0xf0, 0xff, 1, 2, 3, 4}, uint8(9))
	f.Add(make([]byte, 16*40), uint8(77))
	f.Fuzz(func(t *testing.T, raw []byte, nTris uint8) {
		m := &Mesh{}
		for ; len(raw) >= 16; raw = raw[16:] {
			m.Verts = append(m.Verts, Vertex{
				X: math.Float64frombits(binary.LittleEndian.Uint64(raw)),
				Y: math.Float64frombits(binary.LittleEndian.Uint64(raw[8:])),
			})
		}
		if nv := len(m.Verts); nv > 0 {
			// Indices from a small generator seeded by the leftover bytes.
			x := uint32(len(raw)) + 1
			for _, b := range raw {
				x = x*31 + uint32(b)
			}
			for i := 0; i < int(nTris); i++ {
				var tr Triangle
				for k := range tr {
					x = x*1664525 + 1013904223
					tr[k] = int32(x>>8) % int32(nv)
				}
				m.Tris = append(m.Tris, tr)
			}
		}
		enc := Encode(m)
		got, n, err := Decode(append(enc, raw...))
		if err != nil {
			t.Fatalf("decode of a fresh encoding: %v", err)
		}
		if n != len(enc) {
			t.Fatalf("consumed %d of a %d-byte encoding", n, len(enc))
		}
		sameMesh(t, "round trip", got, m)
	})
}
