package core

import (
	"context"
	"errors"
	"math"
	"strings"
	"testing"

	"repro/internal/adios"
	"repro/internal/mesh"
	"repro/internal/storage"
)

func testDataset(name string, nx int) *Dataset {
	m := mesh.Rect(nx, nx, 1, 1)
	data := make([]float64, m.NumVerts())
	for i, v := range m.Verts {
		data[i] = math.Sin(5*v.X)*math.Cos(4*v.Y) + 0.3*v.X*v.Y
	}
	return &Dataset{Name: name, Mesh: m, Data: data}
}

func newIO() *adios.IO {
	return adios.NewIO(storage.TitanTwoTier(0), nil)
}

func TestWriteRetrieveAllLevels(t *testing.T) {
	aio := newIO()
	ds := testDataset("dpot", 24)
	rep, err := Write(context.Background(), aio, ds, Options{Levels: 3, RelTolerance: 1e-9})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Levels != 3 || len(rep.LevelBytes) != 3 {
		t.Fatalf("report levels %d, bytes %v", rep.Levels, rep.LevelBytes)
	}
	r, err := OpenReader(context.Background(), aio, "dpot")
	if err != nil {
		t.Fatal(err)
	}
	if r.Levels() != 3 || r.Mode() != ModeDelta {
		t.Fatalf("reader levels=%d mode=%v", r.Levels(), r.Mode())
	}
	for lvl := 0; lvl < 3; lvl++ {
		v, err := r.Retrieve(context.Background(), lvl)
		if err != nil {
			t.Fatalf("retrieve level %d: %v", lvl, err)
		}
		if v.Level != lvl {
			t.Fatalf("view level %d, want %d", v.Level, lvl)
		}
		if v.Mesh.NumVerts() != rep.VertexCounts[lvl] {
			t.Fatalf("level %d: %d vertices, want %d", lvl, v.Mesh.NumVerts(), rep.VertexCounts[lvl])
		}
		if len(v.Data) != v.Mesh.NumVerts() {
			t.Fatalf("level %d: data/mesh mismatch", lvl)
		}
	}
}

func TestFullAccuracyWithinErrorBound(t *testing.T) {
	aio := newIO()
	ds := testDataset("dpot", 24)
	rep, err := Write(context.Background(), aio, ds, Options{Levels: 3, RelTolerance: 1e-6})
	if err != nil {
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
	if len(v.Data) != len(ds.Data) {
		t.Fatalf("restored %d values, want %d", len(v.Data), len(ds.Data))
	}
	// Error accumulates at most tol per level plus float rounding.
	bound := rep.Tolerance*float64(rep.Levels)*2 + 1e-12
	for i := range ds.Data {
		if e := math.Abs(v.Data[i] - ds.Data[i]); e > bound {
			t.Fatalf("vertex %d error %g exceeds bound %g", i, e, bound)
		}
	}
}

func TestProgressiveAugmentMatchesDirectRetrieve(t *testing.T) {
	aio := newIO()
	ds := testDataset("dpot", 20)
	if _, err := Write(context.Background(), aio, ds, Options{Levels: 4}); err != nil {
		t.Fatal(err)
	}
	r, err := OpenReader(context.Background(), aio, "dpot")
	if err != nil {
		t.Fatal(err)
	}
	// Progressive: base then augment step by step.
	v, err := r.Base(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for v.Level > 0 {
		if err := r.Augment(context.Background(), v); err != nil {
			t.Fatal(err)
		}
		// Invariant: progressive restore equals one-shot retrieve.
		direct, err := r.Retrieve(context.Background(), v.Level)
		if err != nil {
			t.Fatal(err)
		}
		if len(direct.Data) != len(v.Data) {
			t.Fatalf("level %d: lengths differ", v.Level)
		}
		for i := range v.Data {
			if v.Data[i] != direct.Data[i] {
				t.Fatalf("level %d: progressive and direct restore diverge at %d", v.Level, i)
			}
		}
	}
	if err := r.Augment(context.Background(), v); err == nil {
		t.Fatal("Augment past level 0 succeeded")
	}
}

func TestBaseIsOnFastTierAndCheapest(t *testing.T) {
	aio := newIO()
	ds := testDataset("dpot", 24)
	rep, err := Write(context.Background(), aio, ds, Options{Levels: 3})
	if err != nil {
		t.Fatal(err)
	}
	// Placements are recorded base-first.
	if rep.Placements[0].TierName != "tmpfs" {
		t.Fatalf("base placed on %s, want tmpfs", rep.Placements[0].TierName)
	}
	// Finer levels go to the slower tier.
	if rep.Placements[len(rep.Placements)-1].TierName != "lustre" {
		t.Fatalf("finest delta placed on %s, want lustre", rep.Placements[len(rep.Placements)-1].TierName)
	}
	r, err := OpenReader(context.Background(), aio, "dpot")
	if err != nil {
		t.Fatal(err)
	}
	base, err := r.Base(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	full, err := r.Retrieve(context.Background(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if base.Timings.IOSeconds >= full.Timings.IOSeconds {
		t.Fatalf("base I/O %g s not cheaper than full %g s",
			base.Timings.IOSeconds, full.Timings.IOSeconds)
	}
}

func TestDeltaModeSmallerThanDirect(t *testing.T) {
	// Fig. 5's claim: storing base+deltas compresses better than
	// compressing each level directly.
	dsA := testDataset("a", 32)
	dsB := testDataset("b", 32)
	ioA, ioB := newIO(), newIO()
	repDelta, err := Write(context.Background(), ioA, dsA, Options{Levels: 3, RelTolerance: 1e-4})
	if err != nil {
		t.Fatal(err)
	}
	repDirect, err := Write(context.Background(), ioB, dsB, Options{Levels: 3, RelTolerance: 1e-4, Mode: ModeDirect})
	if err != nil {
		t.Fatal(err)
	}
	var deltaPayload, directPayload int64
	for _, b := range repDelta.PayloadBytes {
		deltaPayload += b
	}
	for _, b := range repDirect.PayloadBytes {
		directPayload += b
	}
	if deltaPayload >= directPayload {
		t.Fatalf("delta payload %d bytes >= direct payload %d bytes", deltaPayload, directPayload)
	}
}

func TestDirectModeRetrieval(t *testing.T) {
	aio := newIO()
	ds := testDataset("dpot", 20)
	if _, err := Write(context.Background(), aio, ds, Options{Levels: 3, Mode: ModeDirect, RelTolerance: 1e-8}); err != nil {
		t.Fatal(err)
	}
	r, err := OpenReader(context.Background(), aio, "dpot")
	if err != nil {
		t.Fatal(err)
	}
	if r.Mode() != ModeDirect {
		t.Fatalf("mode = %v", r.Mode())
	}
	v, err := r.Retrieve(context.Background(), 0)
	if err != nil {
		t.Fatal(err)
	}
	bound := r.Tolerance() * 2
	for i := range ds.Data {
		if math.Abs(v.Data[i]-ds.Data[i]) > bound {
			t.Fatalf("direct mode error at %d exceeds bound", i)
		}
	}
	// Direct-mode Augment must also work (re-reads the finer product).
	b, err := r.Base(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Augment(context.Background(), b); err != nil {
		t.Fatal(err)
	}
	if b.Level != r.Levels()-2 {
		t.Fatalf("augmented to level %d", b.Level)
	}
}

func TestSingleLevel(t *testing.T) {
	aio := newIO()
	ds := testDataset("x", 10)
	rep, err := Write(context.Background(), aio, ds, Options{Levels: 1, RelTolerance: 1e-8})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Timings.DecimateSeconds != 0 && rep.VertexCounts[0] != ds.Mesh.NumVerts() {
		t.Fatal("single level must not decimate")
	}
	r, err := OpenReader(context.Background(), aio, "x")
	if err != nil {
		t.Fatal(err)
	}
	v, err := r.Retrieve(context.Background(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if v.Mesh.NumVerts() != ds.Mesh.NumVerts() {
		t.Fatal("single-level mesh differs")
	}
}

func TestLosslessCodecExactRoundTrip(t *testing.T) {
	aio := newIO()
	ds := testDataset("x", 16)
	if _, err := Write(context.Background(), aio, ds, Options{Levels: 3, Codec: "fpc"}); err != nil {
		t.Fatal(err)
	}
	r, err := OpenReader(context.Background(), aio, "x")
	if err != nil {
		t.Fatal(err)
	}
	v, err := r.Retrieve(context.Background(), 0)
	if err != nil {
		t.Fatal(err)
	}
	// With a lossless codec the only deviation is (a-e)+e rounding.
	for i := range ds.Data {
		if math.Abs(v.Data[i]-ds.Data[i]) > 1e-14 {
			t.Fatalf("lossless round trip drifted at %d: %g vs %g", i, v.Data[i], ds.Data[i])
		}
	}
}

func TestWriteValidation(t *testing.T) {
	aio := newIO()
	ds := testDataset("x", 8)
	if _, err := Write(context.Background(), aio, &Dataset{Name: "", Mesh: ds.Mesh, Data: ds.Data}, Options{}); err == nil {
		t.Error("accepted empty name")
	}
	if _, err := Write(context.Background(), aio, &Dataset{Name: "x", Mesh: ds.Mesh, Data: ds.Data[:3]}, Options{}); err == nil {
		t.Error("accepted data/mesh mismatch")
	}
	if _, err := Write(context.Background(), aio, ds, Options{Levels: -1}); err == nil {
		t.Error("accepted negative levels")
	}
	if _, err := Write(context.Background(), aio, ds, Options{Levels: 65}); err == nil {
		t.Error("accepted 65 levels")
	}
	if _, err := Write(context.Background(), aio, ds, Options{Levels: 2, RatioPerLevel: 0.5}); err == nil {
		t.Error("accepted ratio <= 1")
	}
	if _, err := Write(context.Background(), aio, ds, Options{Codec: "bogus"}); err == nil {
		t.Error("accepted unknown codec")
	}
	if _, err := Write(context.Background(), aio, ds, Options{Estimator: "bogus"}); err == nil {
		t.Error("accepted unknown estimator")
	}
	if _, err := Write(context.Background(), aio, ds, Options{RelTolerance: -1}); err == nil {
		t.Error("accepted negative tolerance")
	}
	if _, err := Write(context.Background(), aio, ds, Options{Mode: Mode(9)}); err == nil {
		t.Error("accepted bad mode")
	}
}

// TestWriteRejectsNonFiniteCoordinates: every write input is validated, so
// a vertex coordinate that is not a finite number is refused up front by
// Write, WriteRaw and NewSeriesWriter rather than decimated, located and
// failed on far downstream.
func TestWriteRejectsNonFiniteCoordinates(t *testing.T) {
	ctx := context.Background()
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for axis := 0; axis < 2; axis++ {
			ds := testDataset("x", 40)
			if axis == 0 {
				ds.Mesh.Verts[100].X = bad
			} else {
				ds.Mesh.Verts[100].Y = bad
			}
			check := func(what string, err error) {
				t.Helper()
				if err == nil || !strings.Contains(err.Error(), "vertex 100 has a non-finite coordinate") {
					t.Errorf("%s, coordinate %d = %g: err = %v", what, axis, bad, err)
				}
			}
			_, err := Write(ctx, newIO(), ds, Options{Levels: 3})
			check("Write", err)
			_, err = WriteRaw(ctx, newIO(), ds)
			check("WriteRaw", err)
			_, err = NewSeriesWriter(ctx, newIO(), "x", ds.Mesh, 1, Options{Levels: 3})
			check("NewSeriesWriter", err)
		}
	}
}

func TestOpenReaderMissing(t *testing.T) {
	aio := newIO()
	if _, err := OpenReader(context.Background(), aio, "ghost"); !errors.Is(err, storage.ErrNotFound) {
		t.Fatalf("err = %v, want ErrNotFound", err)
	}
}

func TestRetrieveLevelOutOfRange(t *testing.T) {
	aio := newIO()
	if _, err := Write(context.Background(), aio, testDataset("x", 10), Options{Levels: 2}); err != nil {
		t.Fatal(err)
	}
	r, err := OpenReader(context.Background(), aio, "x")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Retrieve(context.Background(), -1); err == nil {
		t.Error("accepted level -1")
	}
	if _, err := r.Retrieve(context.Background(), 2); err == nil {
		t.Error("accepted level == N")
	}
}

func TestRawBaseline(t *testing.T) {
	aio := newIO()
	ds := testDataset("x", 16)
	rep, err := WriteRaw(context.Background(), aio, ds)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Placements[0].TierName != "lustre" {
		t.Fatalf("raw baseline placed on %s, want slowest tier", rep.Placements[0].TierName)
	}
	rr, err := OpenRawReader(aio, "x")
	if err != nil {
		t.Fatal(err)
	}
	v, err := rr.Retrieve(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for i := range ds.Data {
		if v.Data[i] != ds.Data[i] {
			t.Fatal("raw baseline not bit-exact")
		}
	}
	if v.Mesh.NumVerts() != ds.Mesh.NumVerts() {
		t.Fatal("raw baseline mesh mismatch")
	}
	if v.Timings.IOSeconds <= 0 {
		t.Fatal("raw read reported no I/O cost")
	}
}

func TestCapacityBypassStillRetrievable(t *testing.T) {
	// Tiny tmpfs: everything (including the base) falls through to
	// lustre, and retrieval must still work.
	h := storage.TitanTwoTier(64)
	aio := adios.NewIO(h, nil)
	ds := testDataset("x", 16)
	rep, err := Write(context.Background(), aio, ds, Options{Levels: 3})
	if err != nil {
		t.Fatal(err)
	}
	foundBypass := false
	for _, p := range rep.Placements {
		if len(p.Bypassed) > 0 {
			foundBypass = true
		}
	}
	if !foundBypass {
		t.Fatal("expected tier bypass with 64-byte tmpfs")
	}
	r, err := OpenReader(context.Background(), aio, "x")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Retrieve(context.Background(), 0); err != nil {
		t.Fatal(err)
	}
}

func TestTierFor(t *testing.T) {
	cases := []struct {
		level, total, tiers, want int
	}{
		{2, 3, 2, 0}, // base -> fastest
		{1, 3, 2, 1},
		{0, 3, 2, 1}, // clamped to slowest
		{0, 3, 4, 2},
		{3, 4, 4, 0},
		{0, 1, 2, 0},
	}
	for _, c := range cases {
		if got := tierFor(c.level, c.total, c.tiers); got != c.want {
			t.Errorf("tierFor(%d,%d,%d) = %d, want %d", c.level, c.total, c.tiers, got, c.want)
		}
	}
}

func TestWriteReportAccounting(t *testing.T) {
	aio := newIO()
	ds := testDataset("x", 20)
	rep, err := Write(context.Background(), aio, ds, Options{Levels: 3})
	if err != nil {
		t.Fatal(err)
	}
	if rep.RawBytes != int64(8*len(ds.Data)) {
		t.Fatalf("RawBytes = %d", rep.RawBytes)
	}
	if rep.StoredBytes() <= 0 {
		t.Fatal("StoredBytes not positive")
	}
	if rep.Timings.IOSeconds <= 0 || rep.Timings.IOBytes <= 0 {
		t.Fatal("write timings missing I/O cost")
	}
	if rep.Timings.DecimateSeconds <= 0 {
		t.Fatal("write timings missing decimation cost")
	}
	if len(rep.VertexCounts) != 3 {
		t.Fatalf("VertexCounts = %v", rep.VertexCounts)
	}
	for l := 1; l < 3; l++ {
		if rep.VertexCounts[l] >= rep.VertexCounts[l-1] {
			t.Fatalf("level %d not coarser: %v", l, rep.VertexCounts)
		}
	}
	if tm := rep.Timings; tm.DeltaSeconds <= 0 || tm.CompressSeconds <= 0 {
		t.Fatalf("delta-mode write timings missing a phase: %+v", tm)
	}

	// Direct mode measures its deltas only to calibrate the bounds,
	// outside the timed phases.
	rep, err = Write(context.Background(), newIO(), ds, Options{Levels: 3, Mode: ModeDirect})
	if err != nil {
		t.Fatal(err)
	}
	if tm := rep.Timings; tm.DecimateSeconds <= 0 || tm.DeltaSeconds != 0 || tm.CompressSeconds <= 0 {
		t.Fatalf("direct-mode write timings = %+v, want decimate and compress only", tm)
	}
	if len(rep.Bounds) != 3 {
		t.Fatalf("direct-mode Bounds = %v, want 3 entries", rep.Bounds)
	}

	// A campaign step reports the same three phases, its own stored
	// containers, and the shared hierarchy on step 0 only.
	sw, err := NewSeriesWriter(context.Background(), aio, "camp", ds.Mesh, 2.5, Options{Levels: 3, Chunks: 2})
	if err != nil {
		t.Fatal(err)
	}
	for step := 0; step < 2; step++ {
		srep, err := sw.WriteStep(context.Background(), ds.Data)
		if err != nil {
			t.Fatal(err)
		}
		if tm := srep.Timings; tm.DecimateSeconds <= 0 || tm.DeltaSeconds <= 0 || tm.CompressSeconds <= 0 {
			t.Fatalf("step %d timings missing a phase: %+v", step, tm)
		}
		var stored int64
		for l := 0; l < 3; l++ {
			n, err := aio.H.Size(stepKey("camp", step, l))
			if err != nil {
				t.Fatal(err)
			}
			stored += n
		}
		if srep.PayloadBytes != stored {
			t.Fatalf("step %d PayloadBytes = %d, stored %d", step, srep.PayloadBytes, stored)
		}
		if want := map[bool]int64{true: sw.HierarchyBytes()}[step == 0]; srep.HierarchyBytes != want {
			t.Fatalf("step %d HierarchyBytes = %d, want %d", step, srep.HierarchyBytes, want)
		}
	}
}

func TestPhaseTimings(t *testing.T) {
	a := PhaseTimings{DecimateSeconds: 1, DeltaSeconds: 2, CompressSeconds: 3,
		DecompressSeconds: 4, RestoreSeconds: 5, IOSeconds: 6, IOBytes: 7, IORealBytes: 8}
	var b PhaseTimings
	b.Add(a)
	b.Add(a)
	want := PhaseTimings{DecimateSeconds: 2, DeltaSeconds: 4, CompressSeconds: 6,
		DecompressSeconds: 8, RestoreSeconds: 10, IOSeconds: 12, IOBytes: 14, IORealBytes: 16}
	if b != want {
		t.Fatalf("accumulated = %+v, want %+v", b, want)
	}
}

func TestModeByName(t *testing.T) {
	if m, err := ModeByName("delta"); err != nil || m != ModeDelta {
		t.Error("delta parse failed")
	}
	if m, err := ModeByName(""); err != nil || m != ModeDelta {
		t.Error("default parse failed")
	}
	if m, err := ModeByName("direct"); err != nil || m != ModeDirect {
		t.Error("direct parse failed")
	}
	if _, err := ModeByName("sideways"); err == nil {
		t.Error("bad mode accepted")
	}
	if ModeDelta.String() != "delta" || ModeDirect.String() != "direct" {
		t.Error("String() mismatch")
	}
}
