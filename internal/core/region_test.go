package core

import (
	"context"
	"errors"
	"math"
	"testing"
	"testing/quick"

	"repro/internal/mesh"
)

func TestTileBoxAssignsAllTiles(t *testing.T) {
	m := mesh.Rect(16, 16, 1, 1)
	tb := newTileBox(m, 4)
	tiles := partitionVerts(m, tb)
	if len(tiles) != 16 {
		t.Fatalf("tiles = %d, want 16", len(tiles))
	}
	total := 0
	for _, ids := range tiles {
		for i := 1; i < len(ids); i++ {
			if ids[i] <= ids[i-1] {
				t.Fatal("tile ids not ascending")
			}
		}
		total += len(ids)
	}
	if total != m.NumVerts() {
		t.Fatalf("partition covers %d of %d vertices", total, m.NumVerts())
	}
}

func TestTileBoxBoundaryClamping(t *testing.T) {
	m := mesh.Rect(4, 4, 1, 1)
	tb := newTileBox(m, 3)
	// Corners and out-of-range points must clamp into valid tiles.
	for _, p := range [][2]float64{{0, 0}, {1, 1}, {-5, -5}, {7, 7}} {
		ti := tb.tileOf(p[0], p[1])
		if ti < 0 || ti >= 9 {
			t.Fatalf("tileOf(%v) = %d out of range", p, ti)
		}
	}
}

func TestTileBoxEncodeParseRoundTrip(t *testing.T) {
	m := mesh.Annulus(4, 16, 0.5, 1.0)
	tb := newTileBox(m, 7)
	got, err := parseTileBox(tb.encode())
	if err != nil {
		t.Fatal(err)
	}
	if got != tb {
		t.Fatalf("round trip %+v != %+v", got, tb)
	}
	for _, bad := range []string{"", "1,2,3", "a,b,c,d,e", "1,2,3,4,0", "1,2,3,4,x", "1,2,3,4,65", "0,0,1,1,100000"} {
		if _, err := parseTileBox(bad); err == nil {
			t.Errorf("parseTileBox(%q) accepted", bad)
		}
	}
}

func TestChunkPayloadRoundTrip(t *testing.T) {
	cases := [][]int32{
		{0, 1, 2, 3},
		{5},
		{0, 2, 4, 6},
		{10, 11, 12, 50, 51, 99},
	}
	for _, ids := range cases {
		enc := []byte{9, 8, 7, 6}
		payload := chunkPayload(chunkHeader(ids), enc)
		gotIDs, gotEnc, err := decodeChunkPayload(payload)
		if err != nil {
			t.Fatalf("%v: %v", ids, err)
		}
		if len(gotIDs) != len(ids) {
			t.Fatalf("%v: got %v", ids, gotIDs)
		}
		for i := range ids {
			if gotIDs[i] != ids[i] {
				t.Fatalf("%v: got %v", ids, gotIDs)
			}
		}
		if string(gotEnc) != string(enc) {
			t.Fatalf("%v: enc mismatch", ids)
		}
	}
}

func TestChunkPayloadRunEfficiency(t *testing.T) {
	// A contiguous range must encode as a single tiny run header.
	ids := make([]int32, 1000)
	for i := range ids {
		ids[i] = int32(i)
	}
	payload := chunkPayload(chunkHeader(ids), nil)
	if len(payload) > 8 {
		t.Fatalf("contiguous ids encoded to %d bytes, want a single run", len(payload))
	}
}

func TestDecodeChunkPayloadErrors(t *testing.T) {
	for _, bad := range [][]byte{nil, {1}, {1, 2}, {255, 255, 255, 255, 255, 255, 255, 255, 255, 255}} {
		if _, _, err := decodeChunkPayload(bad); err == nil {
			t.Errorf("decodeChunkPayload(%v) accepted", bad)
		}
	}
	// Truncated enc section.
	payload := chunkPayload(chunkHeader([]int32{1, 2}), []byte{1, 2, 3, 4})
	if _, _, err := decodeChunkPayload(payload[:len(payload)-2]); err == nil {
		t.Error("truncated payload accepted")
	}
}

func TestChunkedWriteStillFullyRetrievable(t *testing.T) {
	aio := newIO()
	ds := testDataset("dpot", 24)
	if _, err := Write(context.Background(), aio, ds, Options{Levels: 3, Chunks: 4, RelTolerance: 1e-8}); err != nil {
		t.Fatal(err)
	}
	r, err := OpenReader(context.Background(), aio, "dpot")
	if err != nil {
		t.Fatal(err)
	}
	v, err := r.Retrieve(context.Background(), 0)
	if err != nil {
		t.Fatal(err)
	}
	bound := r.Tolerance() * 6
	for i := range ds.Data {
		if math.Abs(v.Data[i]-ds.Data[i]) > bound {
			t.Fatalf("chunked full retrieve error at %d: %g", i, math.Abs(v.Data[i]-ds.Data[i]))
		}
	}
}

func TestChunkedMatchesUnchunked(t *testing.T) {
	// Chunking changes how values group into codec blocks, so restored
	// values need not be bit-identical across layouts — but both layouts
	// honor the same error bound, so they must agree to within the
	// accumulated tolerance. With a lossless codec they are bit-equal.
	dsA := testDataset("x", 20)
	dsB := testDataset("x", 20)
	ioA, ioB := newIO(), newIO()
	if _, err := Write(context.Background(), ioA, dsA, Options{Levels: 3, Chunks: 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := Write(context.Background(), ioB, dsB, Options{Levels: 3, Chunks: 5}); err != nil {
		t.Fatal(err)
	}
	ra, err := OpenReader(context.Background(), ioA, "x")
	if err != nil {
		t.Fatal(err)
	}
	rb, err := OpenReader(context.Background(), ioB, "x")
	if err != nil {
		t.Fatal(err)
	}
	va, err := ra.Retrieve(context.Background(), 0)
	if err != nil {
		t.Fatal(err)
	}
	vb, err := rb.Retrieve(context.Background(), 0)
	if err != nil {
		t.Fatal(err)
	}
	bound := 2 * ra.Tolerance() * float64(ra.Levels())
	for i := range va.Data {
		if math.Abs(va.Data[i]-vb.Data[i]) > bound {
			t.Fatalf("chunked and unchunked restores diverge at %d beyond tolerance", i)
		}
	}

	// Lossless codec: layouts must agree exactly.
	ioC, ioD := newIO(), newIO()
	if _, err := Write(context.Background(), ioC, testDataset("y", 16), Options{Levels: 3, Chunks: 1, Codec: "fpc"}); err != nil {
		t.Fatal(err)
	}
	if _, err := Write(context.Background(), ioD, testDataset("y", 16), Options{Levels: 3, Chunks: 4, Codec: "fpc"}); err != nil {
		t.Fatal(err)
	}
	rc, err := OpenReader(context.Background(), ioC, "y")
	if err != nil {
		t.Fatal(err)
	}
	rd, err := OpenReader(context.Background(), ioD, "y")
	if err != nil {
		t.Fatal(err)
	}
	vc, err := rc.Retrieve(context.Background(), 0)
	if err != nil {
		t.Fatal(err)
	}
	vd, err := rd.Retrieve(context.Background(), 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := range vc.Data {
		if vc.Data[i] != vd.Data[i] {
			t.Fatalf("lossless chunked layout diverges at %d", i)
		}
	}
}

func TestRetrieveRegionMatchesFull(t *testing.T) {
	aio := newIO()
	ds := testDataset("dpot", 28)
	if _, err := Write(context.Background(), aio, ds, Options{Levels: 3, Chunks: 4}); err != nil {
		t.Fatal(err)
	}
	r, err := OpenReader(context.Background(), aio, "dpot")
	if err != nil {
		t.Fatal(err)
	}
	full, err := r.Retrieve(context.Background(), 0)
	if err != nil {
		t.Fatal(err)
	}
	// Fresh reader: the regional path must work cold.
	r2, err := OpenReader(context.Background(), aio, "dpot")
	if err != nil {
		t.Fatal(err)
	}
	rv, err := r2.RetrieveRegion(context.Background(), 0, 0.2, 0.2, 0.5, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if rv.CountHave() == 0 {
		t.Fatal("region restored no vertices")
	}
	found := 0
	for vi, ok := range rv.Have {
		if !ok {
			continue
		}
		found++
		if rv.Data[vi] != full.Data[vi] {
			t.Fatalf("region vertex %d = %g, full = %g", vi, rv.Data[vi], full.Data[vi])
		}
	}
	// All vertices inside the bbox must be covered.
	for vi, v := range ds.Mesh.Verts {
		if v.X >= 0.2 && v.X <= 0.5 && v.Y >= 0.2 && v.Y <= 0.5 && !rv.Have[vi] {
			t.Fatalf("in-region vertex %d not restored", vi)
		}
	}
	if found >= len(rv.Have) {
		t.Fatal("region restore covered everything; not a subset")
	}
}

func TestRetrieveRegionReadsFewerBytes(t *testing.T) {
	aio := newIO()
	ds := testDataset("dpot", 40)
	if _, err := Write(context.Background(), aio, ds, Options{Levels: 3, Chunks: 8}); err != nil {
		t.Fatal(err)
	}
	rFull, err := OpenReader(context.Background(), aio, "dpot")
	if err != nil {
		t.Fatal(err)
	}
	full, err := rFull.Retrieve(context.Background(), 0)
	if err != nil {
		t.Fatal(err)
	}
	rRegion, err := OpenReader(context.Background(), aio, "dpot")
	if err != nil {
		t.Fatal(err)
	}
	rv, err := rRegion.RetrieveRegion(context.Background(), 0, 0.0, 0.0, 0.2, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	if rv.Timings.IOBytes >= full.Timings.IOBytes {
		t.Fatalf("region read %d bytes, full read %d; focused retrieval saved nothing",
			rv.Timings.IOBytes, full.Timings.IOBytes)
	}
}

func TestRetrieveRegionWholeDomainEqualsFull(t *testing.T) {
	aio := newIO()
	ds := testDataset("dpot", 20)
	if _, err := Write(context.Background(), aio, ds, Options{Levels: 3, Chunks: 3}); err != nil {
		t.Fatal(err)
	}
	r, err := OpenReader(context.Background(), aio, "dpot")
	if err != nil {
		t.Fatal(err)
	}
	rv, err := r.RetrieveRegion(context.Background(), 0, -1, -1, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if rv.CountHave() != ds.Mesh.NumVerts() {
		t.Fatalf("whole-domain region restored %d of %d vertices", rv.CountHave(), ds.Mesh.NumVerts())
	}
	full, err := r.Retrieve(context.Background(), 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := range full.Data {
		if rv.Data[i] != full.Data[i] {
			t.Fatalf("whole-domain region diverges at %d", i)
		}
	}
}

func TestRetrieveRegionBaseLevel(t *testing.T) {
	aio := newIO()
	ds := testDataset("dpot", 16)
	if _, err := Write(context.Background(), aio, ds, Options{Levels: 3, Chunks: 2}); err != nil {
		t.Fatal(err)
	}
	r, err := OpenReader(context.Background(), aio, "dpot")
	if err != nil {
		t.Fatal(err)
	}
	rv, err := r.RetrieveRegion(context.Background(), 2, 0, 0, 0.1, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	// Base is always fully restored.
	if rv.CountHave() != rv.Mesh.NumVerts() {
		t.Fatal("base region view not fully populated")
	}
}

func TestRetrieveRegionErrors(t *testing.T) {
	aio := newIO()
	ds := testDataset("dpot", 12)
	if _, err := Write(context.Background(), aio, ds, Options{Levels: 2, Chunks: 2}); err != nil {
		t.Fatal(err)
	}
	r, err := OpenReader(context.Background(), aio, "dpot")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.RetrieveRegion(context.Background(), 5, 0, 0, 1, 1); err == nil {
		t.Error("accepted out-of-range level")
	}
	if _, err := r.RetrieveRegion(context.Background(), 0, 1, 1, 0, 0); err == nil {
		t.Error("accepted inverted region")
	}
	// Direct mode rejects regional retrieval.
	io2 := newIO()
	if _, err := Write(context.Background(), io2, testDataset("y", 12), Options{Levels: 2, Mode: ModeDirect}); err != nil {
		t.Fatal(err)
	}
	rd, err := OpenReader(context.Background(), io2, "y")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rd.RetrieveRegion(context.Background(), 0, 0, 0, 1, 1); err == nil {
		t.Error("direct mode accepted regional retrieval")
	}
}

// NaN compares false with everything, so a plain min > max test lets it
// through; the infinities select everything or nothing. All are refused, in
// every position, as ErrBadRegion.
func TestRetrieveRegionRejectsNonFinite(t *testing.T) {
	aio := newIO()
	if _, err := Write(context.Background(), aio, testDataset("dpot", 12), Options{Levels: 2, Chunks: 2}); err != nil {
		t.Fatal(err)
	}
	r, err := OpenReader(context.Background(), aio, "dpot")
	if err != nil {
		t.Fatal(err)
	}
	for pos := 0; pos < 4; pos++ {
		for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
			box := [4]float64{0, 0, 1, 1}
			box[pos] = bad
			_, err := r.RetrieveRegion(context.Background(), 0, box[0], box[1], box[2], box[3])
			if !errors.Is(err, ErrBadRegion) {
				t.Errorf("box %v: err = %v, want ErrBadRegion", box, err)
			}
		}
	}
	if _, err := r.RetrieveRegion(context.Background(), 0, 1, 1, 0, 0); !errors.Is(err, ErrBadRegion) {
		t.Errorf("inverted box: err = %v, want ErrBadRegion", err)
	}
}

func TestRetrieveRegionEmptyIntersection(t *testing.T) {
	aio := newIO()
	ds := testDataset("dpot", 12)
	if _, err := Write(context.Background(), aio, ds, Options{Levels: 2, Chunks: 2}); err != nil {
		t.Fatal(err)
	}
	r, err := OpenReader(context.Background(), aio, "dpot")
	if err != nil {
		t.Fatal(err)
	}
	rv, err := r.RetrieveRegion(context.Background(), 0, 5, 5, 6, 6) // far outside the unit square
	if err != nil {
		t.Fatal(err)
	}
	if rv.CountHave() != 0 {
		t.Fatalf("disjoint region restored %d vertices", rv.CountHave())
	}
}

func TestChunksValidation(t *testing.T) {
	aio := newIO()
	ds := testDataset("dpot", 10)
	if _, err := Write(context.Background(), aio, ds, Options{Chunks: -1}); err == nil {
		t.Error("accepted negative chunks")
	}
	if _, err := Write(context.Background(), aio, ds, Options{Chunks: 100}); err == nil {
		t.Error("accepted chunks > 64")
	}
}

// TestQuickRegionAlwaysMatchesFull is the regional-retrieval property test:
// any rectangle restores exactly the vertices a full retrieval would give.
func TestQuickRegionAlwaysMatchesFull(t *testing.T) {
	aio := newIO()
	ds := testDataset("dpot", 24)
	if _, err := Write(context.Background(), aio, ds, Options{Levels: 3, Chunks: 5}); err != nil {
		t.Fatal(err)
	}
	r, err := OpenReader(context.Background(), aio, "dpot")
	if err != nil {
		t.Fatal(err)
	}
	full, err := r.Retrieve(context.Background(), 0)
	if err != nil {
		t.Fatal(err)
	}
	f := func(ax, ay, bx, by float64) bool {
		x0, x1 := math.Mod(math.Abs(ax), 1), math.Mod(math.Abs(bx), 1)
		y0, y1 := math.Mod(math.Abs(ay), 1), math.Mod(math.Abs(by), 1)
		if x0 > x1 {
			x0, x1 = x1, x0
		}
		if y0 > y1 {
			y0, y1 = y1, y0
		}
		rv, err := r.RetrieveRegion(context.Background(), 0, x0, y0, x1, y1)
		if err != nil {
			return false
		}
		for vi, ok := range rv.Have {
			if ok && rv.Data[vi] != full.Data[vi] {
				return false
			}
		}
		// Coverage: everything inside the rect is restored.
		for vi, v := range ds.Mesh.Verts {
			if v.X >= x0 && v.X <= x1 && v.Y >= y0 && v.Y <= y1 && !rv.Have[vi] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// FuzzRetrieveRegion checks RetrieveRegion's contract on arbitrary boxes
// over one archive: a non-finite or inverted box is ErrBadRegion; below the
// base Have is exactly the target level's in-box vertices, at the base it
// is every vertex; Have values are bit-equal to a full Retrieve at the same
// level; and every other entry of Data is 0.
func FuzzRetrieveRegion(f *testing.F) {
	ctx := context.Background()
	aio := newIO()
	if _, err := Write(ctx, aio, testDataset("dpot", 24), Options{Levels: 3, Chunks: 5}); err != nil {
		f.Fatal(err)
	}
	r, err := OpenReader(ctx, aio, "dpot")
	if err != nil {
		f.Fatal(err)
	}
	full := make([]*View, r.Levels())
	for l := range full {
		if full[l], err = r.Retrieve(ctx, l); err != nil {
			f.Fatal(err)
		}
	}
	f.Add(uint8(0), 0.2, 0.2, 0.6, 0.6)
	f.Add(uint8(1), 0.0, 0.0, 1.0, 1.0)
	f.Add(uint8(2), 0.3, 0.3, 0.4, 0.4)
	f.Add(uint8(0), 0.5, 0.5, 0.5, 0.5)
	f.Add(uint8(1), 5.0, 5.0, 6.0, 6.0)
	f.Add(uint8(0), 0.6, 0.2, 0.2, 0.6)
	f.Add(uint8(1), math.Inf(-1), 0.0, 1.0, 1.0)
	f.Add(uint8(0), 0.1, math.NaN(), 0.9, 0.9)
	f.Fuzz(func(t *testing.T, lv uint8, minX, minY, maxX, maxY float64) {
		level := int(lv) % r.Levels()
		rv, err := r.RetrieveRegion(ctx, level, minX, minY, maxX, maxY)
		bad := minX > maxX || minY > maxY
		for _, c := range [4]float64{minX, minY, maxX, maxY} {
			bad = bad || math.IsNaN(c) || math.IsInf(c, 0)
		}
		if bad {
			if !errors.Is(err, ErrBadRegion) {
				t.Fatalf("box [%g,%g]x[%g,%g]: err = %v, want ErrBadRegion", minX, maxX, minY, maxY, err)
			}
			return
		}
		if err != nil {
			t.Fatal(err)
		}
		want := full[level]
		if rv.Level != level || len(rv.Data) != len(want.Data) || len(rv.Have) != len(want.Data) {
			t.Fatalf("level %d: got level %d with %d values, %d have", level, rv.Level, len(rv.Data), len(rv.Have))
		}
		for vi, v := range want.Mesh.Verts {
			in := level == r.Levels()-1 || v.X >= minX && v.X <= maxX && v.Y >= minY && v.Y <= maxY
			if rv.Have[vi] != in {
				t.Fatalf("level %d vertex %d (%g,%g): Have = %v, want %v", level, vi, v.X, v.Y, rv.Have[vi], in)
			}
			got := math.Float64bits(rv.Data[vi])
			if in && got != math.Float64bits(want.Data[vi]) {
				t.Fatalf("level %d vertex %d = %v, Retrieve has %v", level, vi, rv.Data[vi], want.Data[vi])
			}
			if !in && got != 0 {
				t.Fatalf("level %d vertex %d outside Have = %v, want 0", level, vi, rv.Data[vi])
			}
		}
	})
}
