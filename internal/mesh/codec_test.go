package mesh

import (
	"bytes"
	"compress/flate"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"io"
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/compress"
	"repro/internal/engine"
)

// jitter returns m with every coordinate's low mantissa bits scrambled, so
// the low byte planes are incompressible the way decimated levels' are.
func jitter(m *Mesh) *Mesh {
	out := &Mesh{Verts: append([]Vertex(nil), m.Verts...), Tris: m.Tris}
	x := uint64(0x9e3779b97f4a7c15)
	for i := range out.Verts {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		out.Verts[i].X = math.Float64frombits(math.Float64bits(out.Verts[i].X) ^ (x & 0xffffffffffff))
		out.Verts[i].Y = math.Float64frombits(math.Float64bits(out.Verts[i].Y) ^ (x >> 16))
	}
	return out
}

func sameMesh(t *testing.T, what string, got, want *Mesh) {
	t.Helper()
	if len(got.Verts) != len(want.Verts) || len(got.Tris) != len(want.Tris) {
		t.Fatalf("%s: %d verts %d tris, want %d and %d", what, len(got.Verts), len(got.Tris), len(want.Verts), len(want.Tris))
	}
	for i, v := range want.Verts {
		g := got.Verts[i]
		if math.Float64bits(g.X) != math.Float64bits(v.X) || math.Float64bits(g.Y) != math.Float64bits(v.Y) {
			t.Fatalf("%s: vertex %d = %x,%x want %x,%x", what, i,
				math.Float64bits(g.X), math.Float64bits(g.Y), math.Float64bits(v.X), math.Float64bits(v.Y))
		}
	}
	for i, tr := range want.Tris {
		if got.Tris[i] != tr {
			t.Fatalf("%s: triangle %d = %v want %v", what, i, got.Tris[i], tr)
		}
	}
}

func codecMeshes() map[string]*Mesh {
	special := &Mesh{
		Verts: []Vertex{
			{X: math.Copysign(0, -1), Y: math.Inf(1)},
			{X: math.Inf(-1), Y: math.Float64frombits(0x7ff8dead0000beef)}, // NaN with a payload
			{X: math.SmallestNonzeroFloat64, Y: -math.MaxFloat64},
		},
		Tris: []Triangle{{2, 0, 1}, {0, 1, 2}, {1, 2, 0}},
	}
	return map[string]*Mesh{
		"rect":      Rect(17, 9, 2, 1),
		"annulus":   Annulus(12, 96, 0.3, 1),
		"jittered":  jitter(Annulus(20, 200, 0.3, 1)),
		"empty":     {},
		"vertsonly": {Verts: []Vertex{{1, 2}, {3, 4}}},
		"special":   special,
	}
}

func TestCodecRoundTrip(t *testing.T) {
	for name, m := range codecMeshes() {
		enc := Encode(m)
		if v := binary.LittleEndian.Uint16(enc[4:6]); v != 2 {
			t.Fatalf("%s: Encode wrote version %d, want 2", name, v)
		}
		// Consumed length is the encoding's, whatever follows it.
		got, n, err := Decode(append(append([]byte(nil), enc...), 0xAA, 0xBB))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if n != len(enc) {
			t.Fatalf("%s: consumed %d of a %d-byte encoding", name, n, len(enc))
		}
		sameMesh(t, name, got, m)
		if again := AppendEncode([]byte{1, 2, 3}, m); !bytes.Equal(again[3:], enc) || !bytes.Equal(again[:3], []byte{1, 2, 3}) {
			t.Fatalf("%s: AppendEncode differs from Encode", name)
		}
	}
}

// Version 1 is what every archive written before version 2 holds; it must
// keep decoding to the same mesh.
func TestDecodeVersion1(t *testing.T) {
	for name, m := range codecMeshes() {
		v1 := appendEncodeV1(nil, m)
		got, n, err := Decode(v1)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if n != len(v1) {
			t.Fatalf("%s: consumed %d of %d", name, n, len(v1))
		}
		sameMesh(t, name, got, m)
	}
}

func TestDecodeSameAtEveryPoolWidth(t *testing.T) {
	m := jitter(Annulus(24, 300, 0.3, 1))
	enc := Encode(m)
	for _, workers := range []int{1, 2, 8} {
		got, n, err := DecodeOn(context.Background(), engine.NewPool(workers), enc)
		if err != nil || n != len(enc) {
			t.Fatalf("workers=%d: n=%d err=%v", workers, n, err)
		}
		sameMesh(t, "pooled", got, m)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := DecodeOn(ctx, engine.NewPool(2), enc); err != context.Canceled {
		t.Fatalf("cancelled decode: err = %v", err)
	}
}

// The plane split has to pay: smaller than version 1 inside a whole-buffer
// DEFLATE (what archives held before), and with the noise planes stored raw.
func TestVersion2SmallerThanDeflatedVersion1(t *testing.T) {
	m := jitter(Annulus(32, 400, 0.3, 1))
	v2 := Encode(m)
	v1, err := compress.DeflateAppend(nil, appendEncodeV1(nil, m))
	if err != nil {
		t.Fatal(err)
	}
	if len(v2) >= len(v1) {
		t.Fatalf("version 2 is %d bytes, deflated version 1 is %d", len(v2), len(v1))
	}
	raw := 0
	walkPlanes(t, v2, func(p int, tag byte, body []byte) {
		if tag == planeRaw {
			raw++
		}
	})
	if raw < 10 {
		t.Fatalf("only %d of %d planes stored raw on noisy coordinates", raw, numPlanes)
	}
}

// encodingGolden pins the version-2 bytes: archives hold them.
var encodingGolden = map[string]string{
	"rect":     "2617b048c662f2f33230112700ae5b85e5f71bc86bc9edc0a6a4d56db7a2be31",
	"annulus":  "254022ee1c23e4a1f6e36abd830ec6cd7ede44d01f5669a64fe012991a60b97e",
	"jittered": "0444362533c3b2e8edf5256a181831ad476ca89396aef6b737b1f5415d2410af",
	"empty":    "7b5c4755a99ef7743c65944012aeddcccc3236357afe8ac692a625fc1ddc26b8",
	"special":  "a0ed20cf54b7776751c9984378dbc3670db09062aa27ae3826dfd69d0989c8a4",
}

func TestEncodeGolden(t *testing.T) {
	meshes := codecMeshes()
	for name, want := range encodingGolden {
		sum := sha256.Sum256(Encode(meshes[name]))
		if got := hex.EncodeToString(sum[:]); got != want {
			t.Errorf("%s: encoding changed:\n got %s\nwant %s", name, got, want)
		}
	}
}

// walkPlanes calls fn for each plane record of a version-2 encoding.
func walkPlanes(t *testing.T, enc []byte, fn func(p int, tag byte, body []byte)) {
	t.Helper()
	off := 6
	for i := 0; i < 2; i++ {
		_, n := binary.Uvarint(enc[off:])
		off += n
	}
	for p := 0; p < numPlanes; p++ {
		tag := enc[off]
		length, n := binary.Uvarint(enc[off+1:])
		off += 1 + n
		fn(p, tag, enc[off:off+int(length)])
		off += int(length)
	}
	if off != len(enc) {
		t.Fatalf("planes end at %d of %d", off, len(enc))
	}
}

// rebuild re-serialises a version-2 encoding with edit applied to each plane
// record, for building malformed inputs.
func rebuild(t *testing.T, enc []byte, nVerts, nTris uint64, edit func(p int, tag byte, body []byte) (byte, []byte)) []byte {
	t.Helper()
	out := append([]byte(nil), enc[:6]...)
	out = binary.AppendUvarint(out, nVerts)
	out = binary.AppendUvarint(out, nTris)
	walkPlanes(t, enc, func(p int, tag byte, body []byte) {
		tag, body = edit(p, tag, body)
		out = append(out, tag)
		out = binary.AppendUvarint(out, uint64(len(body)))
		out = append(out, body...)
	})
	return out
}

func TestDecodeRejectsMalformedVersion2(t *testing.T) {
	m := jitter(Annulus(10, 120, 0.3, 1))
	nv, nt := uint64(len(m.Verts)), uint64(len(m.Tris))
	enc := Encode(m)
	keep := func(p int, tag byte, body []byte) (byte, []byte) { return tag, body }
	var rawPlane, deflatedCoord, deflatedConn = -1, -1, -1
	walkPlanes(t, enc, func(p int, tag byte, body []byte) {
		switch {
		case tag == planeRaw && rawPlane < 0:
			rawPlane = p
		case tag == planeDeflate && p < coordPlanes && deflatedCoord < 0:
			deflatedCoord = p
		case tag == planeDeflate && p >= coordPlanes && deflatedConn < 0:
			deflatedConn = p
		}
	})
	if rawPlane < 0 || deflatedCoord < 0 || deflatedConn < 0 {
		t.Fatalf("test mesh lacks a plane kind: raw %d, deflated coord %d, deflated conn %d", rawPlane, deflatedCoord, deflatedConn)
	}
	deflate := func(b []byte) []byte {
		z, err := compress.DeflateAppend(nil, b)
		if err != nil {
			t.Fatal(err)
		}
		return z
	}
	on := func(target int, f func(tag byte, body []byte) (byte, []byte)) func(int, byte, []byte) (byte, []byte) {
		return func(p int, tag byte, body []byte) (byte, []byte) {
			if p == target {
				return f(tag, body)
			}
			return tag, body
		}
	}
	// An all-zero connectivity plane set decodes to index 0 everywhere;
	// shifting the first delta by nVerts puts every index out of range.
	cases := []struct {
		name string
		data []byte
		want string
	}{
		{"forged vertex count", rebuild(t, enc, nv+1, nt, keep), "want"},
		{"forged triangle count", rebuild(t, enc, nv, nt+1, keep), ""},
		{"gigabyte header", rebuild(t, enc, 1<<30, 1<<30, keep), ""},
		{"count beyond int32", rebuild(t, enc, 1<<40, nt, keep), "implausible"},
		{"unknown tag", rebuild(t, enc, nv, nt, on(3, func(_ byte, b []byte) (byte, []byte) { return 7, b })), "unknown tag"},
		{"short raw plane", rebuild(t, enc, nv, nt, on(rawPlane, func(tag byte, b []byte) (byte, []byte) { return tag, b[:len(b)-1] })), "want"},
		{"long raw plane", rebuild(t, enc, nv, nt, on(rawPlane, func(tag byte, b []byte) (byte, []byte) { return tag, append(append([]byte(nil), b...), 0) })), "want"},
		{"plane inflates short", rebuild(t, enc, nv, nt, on(deflatedCoord, func(tag byte, _ []byte) (byte, []byte) { return tag, deflate(make([]byte, nv-1)) })), "fewer"},
		{"plane inflates long", rebuild(t, enc, nv, nt, on(deflatedCoord, func(tag byte, _ []byte) (byte, []byte) { return tag, deflate(make([]byte, nv+1)) })), "more"},
		{"bytes after the stream", rebuild(t, enc, nv, nt, on(deflatedConn, func(tag byte, b []byte) (byte, []byte) { return tag, append(append([]byte(nil), b...), 0) })), "after the end"},
		{"truncated stream", rebuild(t, enc, nv, nt, on(deflatedConn, func(tag byte, b []byte) (byte, []byte) { return tag, b[:len(b)/2] })), ""},
		{"too small to inflate", rebuild(t, enc, nv, nt, on(deflatedCoord, func(tag byte, _ []byte) (byte, []byte) { return tag, nil })), "cannot inflate"},
		{"index out of range", rebuild(t, enc, nv, nt, func(p int, tag byte, b []byte) (byte, []byte) {
			if p < coordPlanes {
				return tag, b
			}
			z := make([]byte, nt)
			if p == coordPlanes+4 { // corner 1, low byte: first delta = zigzag(nv)
				z[0] = byte(2 * nv)
			}
			if p == coordPlanes+5 {
				z[0] = byte(2 * nv >> 8)
			}
			return planeRaw, z
		}), "out of range"},
		{"truncated mid-plane", enc[:len(enc)-5], "truncated"},
		{"truncated in the records", enc[:40], ""},
	}
	for _, tc := range cases {
		got, _, err := Decode(tc.data)
		if err == nil {
			t.Errorf("%s: decoded %d verts %d tris, want an error", tc.name, len(got.Verts), len(got.Tris))
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
}

// A forged header must be refused before anything is allocated for it: the
// largest count a payload can justify is maxInflateRatio times its size.
func TestForgedHeaderAllocatesNothing(t *testing.T) {
	enc := Encode(Rect(8, 8, 1, 1))
	forged := rebuild(t, enc, math.MaxInt32, math.MaxInt32, func(_ int, tag byte, b []byte) (byte, []byte) { return tag, b })
	allocs := testing.AllocsPerRun(10, func() {
		if _, _, err := Decode(forged); err == nil {
			t.Fatal("forged header decoded")
		}
	})
	// The error value and its message; not 2 GiB of vertices.
	if allocs > 8 {
		t.Fatalf("refusing a forged header took %v allocations", allocs)
	}
}

// Any single flipped byte yields an error or a mesh whose indices are all in
// range — never a panic.
func TestDecodeSurvivesEveryByteFlip(t *testing.T) {
	m := jitter(Annulus(6, 40, 0.3, 1))
	enc := Encode(m)
	buf := make([]byte, len(enc))
	for i := range enc {
		for _, mask := range []byte{0x01, 0x80, 0xff} {
			copy(buf, enc)
			buf[i] ^= mask
			got, _, err := Decode(buf)
			if err != nil {
				continue
			}
			for _, tr := range got.Tris {
				for _, v := range tr {
					if v < 0 || int(v) >= len(got.Verts) {
						t.Fatalf("byte %d ^ %#x: triangle references vertex %d of %d", i, mask, v, len(got.Verts))
					}
				}
			}
		}
	}
}

// stdlibInflateInto is compress.InflateInto's contract run on the
// compress/flate reader: exactly len(dst) bytes, then the end of the
// stream, then the end of src.
func stdlibInflateInto(dst, src []byte) error {
	br := bytes.NewReader(src)
	fr := flate.NewReader(br)
	if _, err := io.ReadFull(fr, dst); err != nil {
		return err
	}
	var extra [1]byte
	if n, err := fr.Read(extra[:]); n != 0 || err != io.EOF {
		return errors.New("stream runs long or fails")
	}
	if br.Len() != 0 {
		return errors.New("bytes after the end of the stream")
	}
	return nil
}

// shuffled returns m with its vertex ids permuted, so the connectivity
// deltas are irregular and their planes literal-heavy.
func shuffled(m *Mesh, seed int64) *Mesh {
	perm := rand.New(rand.NewSource(seed)).Perm(len(m.Verts))
	out := &Mesh{Verts: make([]Vertex, len(m.Verts)), Tris: make([]Triangle, len(m.Tris))}
	for i, v := range m.Verts {
		out.Verts[perm[i]] = v
	}
	for i, tr := range m.Tris {
		out.Tris[i] = Triangle{int32(perm[tr[0]]), int32(perm[tr[1]]), int32(perm[tr[2]])}
	}
	return out
}

// Every deflated plane of a real encoding inflates to the same bytes through
// compress.InflateInto as through compress/flate, and under every
// single-byte flip the two still agree: the same bytes, or both refuse.
func TestPlaneInflateMatchesStdlibUnderEveryByteFlip(t *testing.T) {
	for name, m := range map[string]*Mesh{
		"disk":      Disk(12, 64, 1),
		"irregular": shuffled(jitter(Disk(12, 64, 1)), 34),
	} {
		enc := Encode(m)
		planes := 0
		walkPlanes(t, enc, func(p int, tag byte, body []byte) {
			if tag != planeDeflate {
				return
			}
			planes++
			size := len(m.Verts)
			if p >= coordPlanes {
				size = len(m.Tris)
			}
			got, want := make([]byte, size), make([]byte, size)
			if err := compress.InflateInto(got, body); err != nil {
				t.Fatalf("%s plane %d: %v", name, p, err)
			}
			if err := stdlibInflateInto(want, body); err != nil || !bytes.Equal(got, want) {
				t.Fatalf("%s plane %d: differs from stdlib (stdlib error %v)", name, p, err)
			}
			flipped := make([]byte, len(body))
			for i := range body {
				for _, mask := range []byte{0x01, 0x80, 0xff} {
					copy(flipped, body)
					flipped[i] ^= mask
					gerr, werr := compress.InflateInto(got, flipped), stdlibInflateInto(want, flipped)
					if (gerr == nil) != (werr == nil) {
						t.Fatalf("%s plane %d byte %d ^ %#x: error %v, stdlib %v", name, p, i, mask, gerr, werr)
					}
					if gerr == nil && !bytes.Equal(got, want) {
						t.Fatalf("%s plane %d byte %d ^ %#x: bytes differ from stdlib", name, p, i, mask)
					}
				}
			}
		})
		if planes < 8 {
			t.Fatalf("%s: only %d deflated planes", name, planes)
		}
	}
}
