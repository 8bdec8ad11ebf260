package core

import (
	"context"
	"errors"
	"math"
	"testing"
	"time"

	"repro/internal/adios"
	"repro/internal/mesh"
	"repro/internal/storage"
)

// Degradation acceptance tests: with a fault spec injecting 100% read
// failure on the delta tier, a Retrieve with SetDegrade(true) returns the
// base-accuracy result with a populated Degradation report; without it, the
// same retrieval returns a typed storage error.

var coreFastRetry = storage.RetryPolicy{
	Attempts:  2,
	BaseDelay: time.Microsecond,
	MaxDelay:  2 * time.Microsecond,
}

// faultedIO writes ds with opts on a Titan two-tier hierarchy, then injects
// spec. The base lands on tmpfs and the deltas on lustre, so tier-scoped
// specs can kill refinement while leaving the base readable.
func faultedIO(t *testing.T, ds *Dataset, opts Options, spec string) *adios.IO {
	t.Helper()
	aio := newIO()
	aio.H.SetRetryPolicy(coreFastRetry)
	if _, err := Write(context.Background(), aio, ds, opts); err != nil {
		t.Fatal(err)
	}
	if n, err := aio.H.InjectFaults(spec); err != nil || n == 0 {
		t.Fatalf("InjectFaults(%q) = %d, %v", spec, n, err)
	}
	return aio
}

func TestRetrieveDegradesToBaseUnderTierFault(t *testing.T) {
	ds := testDataset("dpot", 24)
	aio := faultedIO(t, ds, Options{Levels: 3}, "seed=1,tier=lustre,read.err=1")

	// Without Degrade the retrieval surfaces the typed storage error.
	rd, err := OpenReader(context.Background(), aio, "dpot")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rd.Retrieve(context.Background(), 0); !errors.Is(err, storage.ErrTransient) {
		t.Fatalf("Retrieve without Degrade: err = %v, want ErrTransient", err)
	}

	// With Degrade the same retrieval lands on the base with a report.
	rd, err = OpenReader(context.Background(), aio, "dpot")
	if err != nil {
		t.Fatal(err)
	}
	rd.SetDegrade(true)
	v, err := rd.Retrieve(context.Background(), 0)
	if err != nil {
		t.Fatalf("degraded Retrieve: %v", err)
	}
	base := rd.Levels() - 1
	if v.Level != base {
		t.Fatalf("degraded Level = %d, want base %d", v.Level, base)
	}
	d := v.Degradation
	if d == nil {
		t.Fatal("degraded view has no Degradation report")
	}
	if d.RequestedLevel != 0 || d.AchievedLevel != base || d.LevelsLost != base {
		t.Fatalf("Degradation = %+v, want requested 0 achieved %d", d, base)
	}
	if d.Reason == "" {
		t.Fatal("Degradation.Reason empty")
	}
	// The writer records composed per-level bounds, so even a degraded view
	// knows its accuracy: the base bound must be positive and no tighter
	// than the codec tolerance.
	if d.ErrorBound < rd.Tolerance() {
		t.Fatalf("ErrorBound = %g at level %d, want >= codec tolerance %g", d.ErrorBound, v.Level, rd.Tolerance())
	}
	if d.ErrorBound != v.ErrorBound {
		t.Fatalf("report bound %g != view bound %g", d.ErrorBound, v.ErrorBound)
	}
	if v.Mesh.NumVerts() != len(v.Data) {
		t.Fatalf("degraded view inconsistent: %d verts, %d values", v.Mesh.NumVerts(), len(v.Data))
	}
}

func TestRetrieveDegradePartialRefinement(t *testing.T) {
	// Kill only level 0's container: refinement must stop at level 1 with
	// levels 2→1 restored normally, not collapse all the way to the base.
	ds := testDataset("dpot", 24)
	aio := newIO()
	aio.H.SetRetryPolicy(coreFastRetry)
	if _, err := Write(context.Background(), aio, ds, Options{Levels: 3}); err != nil {
		t.Fatal(err)
	}
	if err := aio.H.Delete(levelKey("dpot", 0)); err != nil {
		t.Fatal(err)
	}
	rd, err := OpenReader(context.Background(), aio, "dpot")
	if err != nil {
		t.Fatal(err)
	}
	rd.SetDegrade(true)
	v, err := rd.Retrieve(context.Background(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if v.Level != 1 {
		t.Fatalf("Level = %d, want 1 (levels 2→1 intact)", v.Level)
	}
	d := v.Degradation
	if d == nil || d.AchievedLevel != 1 || d.LevelsLost != 1 {
		t.Fatalf("Degradation = %+v, want achieved 1", d)
	}
	if !errorsIsNotFoundReason(d.Reason) {
		t.Fatalf("Reason %q does not mention the missing container", d.Reason)
	}
	// A mid-hierarchy achieved level carries its recorded composed bound —
	// before the planner, non-finest levels reported -1 (unknown).
	if d.ErrorBound <= 0 {
		t.Fatalf("ErrorBound = %g at achieved level 1, want recorded positive bound", d.ErrorBound)
	}
}

func errorsIsNotFoundReason(s string) bool {
	return s != "" // reason is the wrapped storage error string; non-empty is enough
}

func TestBaseFailureStillErrorsUnderDegrade(t *testing.T) {
	// Degradation has nothing coarser than the base: a fault spec covering
	// every tier must surface an error even with Degrade on.
	ds := testDataset("dpot", 20)
	aio := newIO()
	aio.H.SetRetryPolicy(coreFastRetry)
	if _, err := Write(context.Background(), aio, ds, Options{Levels: 3}); err != nil {
		t.Fatal(err)
	}
	// Open before injecting: the metadata container lives on the faulted
	// tier too, and the reader needs it to get as far as the base read.
	rd, err := OpenReader(context.Background(), aio, "dpot")
	if err != nil {
		t.Fatal(err)
	}
	rd.SetDegrade(true)
	if n, err := aio.H.InjectFaults("seed=7,read.err=1"); err != nil || n == 0 {
		t.Fatalf("InjectFaults = %d, %v", n, err)
	}
	if _, err := rd.Retrieve(context.Background(), 0); !errors.Is(err, storage.ErrTransient) {
		t.Fatalf("base-tier fault with Degrade: err = %v, want ErrTransient", err)
	}
}

func TestDirectRetrieveDegrades(t *testing.T) {
	ds := testDataset("dpot", 24)
	aio := faultedIO(t, ds, Options{Levels: 3, Mode: ModeDirect}, "seed=3,tier=lustre,read.err=1")
	rd, err := OpenReader(context.Background(), aio, "dpot")
	if err != nil {
		t.Fatal(err)
	}
	rd.SetDegrade(true)
	v, err := rd.Retrieve(context.Background(), 0)
	if err != nil {
		t.Fatalf("degraded direct Retrieve: %v", err)
	}
	base := rd.Levels() - 1
	if v.Level != base || v.Degradation == nil || v.Degradation.AchievedLevel != base {
		t.Fatalf("direct degraded to level %d (report %+v), want %d", v.Level, v.Degradation, base)
	}
	// Without Degrade the direct read errors.
	rd.SetDegrade(false)
	if _, err := rd.Retrieve(context.Background(), 0); !errors.Is(err, storage.ErrTransient) {
		t.Fatalf("direct without Degrade: err = %v, want ErrTransient", err)
	}
}

func TestRegionRetrieveDegrades(t *testing.T) {
	ds := testDataset("dpot", 24)
	aio := faultedIO(t, ds, Options{Levels: 3, Chunks: 4}, "seed=5,tier=lustre,read.err=1")
	rd, err := OpenReader(context.Background(), aio, "dpot")
	if err != nil {
		t.Fatal(err)
	}
	rd.SetDegrade(true)
	v, err := rd.RetrieveRegion(context.Background(), 0, 0.2, 0.2, 0.6, 0.6)
	if err != nil {
		t.Fatalf("degraded RetrieveRegion: %v", err)
	}
	base := rd.Levels() - 1
	if v.Level != base || v.Degradation == nil {
		t.Fatalf("region degraded to level %d (report %+v), want base %d", v.Level, v.Degradation, base)
	}
	// The base view is complete by construction.
	if v.CountHave() != v.Mesh.NumVerts() {
		t.Fatalf("base region view has %d/%d vertices", v.CountHave(), v.Mesh.NumVerts())
	}
	rd.SetDegrade(false)
	if _, err := rd.RetrieveRegion(context.Background(), 0, 0.2, 0.2, 0.6, 0.6); !errors.Is(err, storage.ErrTransient) {
		t.Fatalf("region without Degrade: err = %v, want ErrTransient", err)
	}
}

func TestSeriesRetrieveStepDegrades(t *testing.T) {
	m := mesh.Rect(20, 20, 1, 1)
	aio := newIO()
	aio.H.SetRetryPolicy(coreFastRetry)
	sw, err := NewSeriesWriter(context.Background(), aio, "dpot", m, 2.5, Options{Levels: 3})
	if err != nil {
		t.Fatal(err)
	}
	field := seriesField(m, 0)
	if _, err := sw.WriteStep(context.Background(), field); err != nil {
		t.Fatal(err)
	}
	if n, err := aio.H.InjectFaults("seed=9,tier=lustre,read.err=1"); err != nil || n == 0 {
		t.Fatalf("InjectFaults = %d, %v", n, err)
	}

	sr, err := OpenSeriesReader(context.Background(), aio, "dpot")
	if err != nil {
		t.Fatal(err)
	}
	sr.SetDegrade(true)
	v, err := sr.RetrieveStep(context.Background(), 0, 0)
	if err != nil {
		t.Fatalf("degraded RetrieveStep: %v", err)
	}
	base := sr.Levels() - 1
	if v.Level != base || v.Degradation == nil || v.Degradation.LevelsLost != base {
		t.Fatalf("series degraded to level %d (report %+v), want base %d", v.Level, v.Degradation, base)
	}
	sr.SetDegrade(false)
	if _, err := sr.RetrieveStep(context.Background(), 0, 0); !errors.Is(err, storage.ErrTransient) {
		t.Fatalf("series without Degrade: err = %v, want ErrTransient", err)
	}
}

func TestDegradeDoesNotAbsorbCancellation(t *testing.T) {
	// A cancelled context is the caller giving up, not storage failing:
	// Degrade must not turn it into a "successful" coarse view.
	ds := testDataset("dpot", 24)
	aio := newIO()
	if _, err := Write(context.Background(), aio, ds, Options{Levels: 3}); err != nil {
		t.Fatal(err)
	}
	rd, err := OpenReader(context.Background(), aio, "dpot")
	if err != nil {
		t.Fatal(err)
	}
	rd.SetDegrade(true)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := rd.Retrieve(ctx, 0); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled Retrieve with Degrade: err = %v, want context.Canceled", err)
	}
}

// TestCorruptionMatrixAllCodecs flips stored bytes under every codec and
// both container framings and checks retrieval reports storage.ErrCorrupt —
// never silently-wrong floats. The test containers are far smaller than one
// checksum block, so any flip anywhere in the envelope must be caught by the
// first ranged read that touches the container.
func TestCorruptionMatrixAllCodecs(t *testing.T) {
	for _, codec := range []string{"zfp", "sz", "fpc", "flate"} {
		for _, chunk := range []struct {
			name string
			val  int
		}{{"v1", -1}, {"cck2", 0}} {
			t.Run(codec+"/"+chunk.name, func(t *testing.T) {
				aio := newIO()
				aio.H.SetRetryPolicy(coreFastRetry)
				ds := testDataset("dpot", 20)
				opts := Options{Levels: 2, Codec: codec, CodecChunk: chunk.val}
				if _, err := Write(context.Background(), aio, ds, opts); err != nil {
					t.Fatal(err)
				}

				// Clean read first, so a failure below is the flip's doing.
				rd, err := OpenReader(context.Background(), aio, "dpot")
				if err != nil {
					t.Fatal(err)
				}
				v, err := rd.Retrieve(context.Background(), 0)
				if err != nil {
					t.Fatal(err)
				}
				want := append([]float64(nil), v.Data...)

				key := levelKey("dpot", 0)
				idx := aio.H.Where(key)
				if idx < 0 {
					t.Fatalf("level container %q not placed", key)
				}
				backend := aio.H.Tier(idx).Backend
				raw, err := backend.Get(key)
				if err != nil {
					t.Fatal(err)
				}
				for _, off := range []int{0, len(raw) / 4, len(raw) / 2, 3 * len(raw) / 4, len(raw) - 1} {
					flipped := append([]byte(nil), raw...)
					flipped[off] ^= 0x40
					if err := backend.Put(key, flipped); err != nil {
						t.Fatal(err)
					}
					// A fresh aio-level reader: the parsed-index cache was
					// dropped when the corrupt fetch surfaced, and must not
					// mask the flip either way.
					rd, err := OpenReader(context.Background(), aio, "dpot")
					if err != nil {
						t.Fatal(err)
					}
					got, err := rd.Retrieve(context.Background(), 0)
					if err == nil {
						// Only acceptable if the bytes round-tripped to the
						// exact same values — i.e. never garbage.
						for i := range got.Data {
							if math.Abs(got.Data[i]-want[i]) != 0 {
								t.Fatalf("offset %d: flip decoded to different floats without error", off)
							}
						}
						t.Fatalf("offset %d: corrupted container read back without error", off)
					}
					if !errors.Is(err, storage.ErrCorrupt) {
						t.Fatalf("offset %d: err = %v, want storage.ErrCorrupt", off, err)
					}
				}
				// Restore the container and confirm it reads again (the
				// corrupt-fetch path must have dropped stale caches).
				if err := backend.Put(key, raw); err != nil {
					t.Fatal(err)
				}
				rd, err = OpenReader(context.Background(), aio, "dpot")
				if err != nil {
					t.Fatal(err)
				}
				got, err := rd.Retrieve(context.Background(), 0)
				if err != nil {
					t.Fatalf("restored container: %v", err)
				}
				for i := range got.Data {
					if got.Data[i] != want[i] {
						t.Fatalf("restored container decoded differently at %d", i)
					}
				}
			})
		}
	}
}

// TestCorruptDeltaDegradesCleanly ties the two halves of the PR together:
// checksum detection turns silent corruption into storage.ErrCorrupt, and
// degradation turns that into a usable coarse view.
func TestCorruptDeltaDegradesCleanly(t *testing.T) {
	aio := newIO()
	aio.H.SetRetryPolicy(coreFastRetry)
	ds := testDataset("dpot", 24)
	if _, err := Write(context.Background(), aio, ds, Options{Levels: 3}); err != nil {
		t.Fatal(err)
	}
	key := levelKey("dpot", 0)
	idx := aio.H.Where(key)
	backend := aio.H.Tier(idx).Backend
	raw, err := backend.Get(key)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0x10
	if err := backend.Put(key, raw); err != nil {
		t.Fatal(err)
	}
	rd, err := OpenReader(context.Background(), aio, "dpot")
	if err != nil {
		t.Fatal(err)
	}
	rd.SetDegrade(true)
	v, err := rd.Retrieve(context.Background(), 0)
	if err != nil {
		t.Fatalf("degraded Retrieve over corrupt delta: %v", err)
	}
	if v.Level != 1 || v.Degradation == nil {
		t.Fatalf("Level = %d (report %+v), want 1", v.Level, v.Degradation)
	}
}

// TestRegionDegradesOnCorruptTile pins the mid-walk degrade path of a region
// read: with the level-0 container's index already parsed, a corrupt byte
// in its payload fails the tile fetch rather than the container open, and
// the region read degrades to level 1 with every restored vertex equal to
// a full level-1 retrieval.
func TestRegionDegradesOnCorruptTile(t *testing.T) {
	ctx := context.Background()
	aio := newIO()
	aio.H.SetRetryPolicy(coreFastRetry)
	ds := testDataset("dpot", 24)
	if _, err := Write(ctx, aio, ds, Options{Levels: 3, Chunks: 4}); err != nil {
		t.Fatal(err)
	}
	rd, err := OpenReader(ctx, aio, "dpot")
	if err != nil {
		t.Fatal(err)
	}
	rd.SetDegrade(true)
	// Warm the geometry and the parsed container index.
	if _, err := rd.Retrieve(ctx, 0); err != nil {
		t.Fatal(err)
	}
	want, err := rd.Retrieve(ctx, 1)
	if err != nil {
		t.Fatal(err)
	}

	key := levelKey("dpot", 0)
	backend := aio.H.Tier(aio.H.Where(key)).Backend
	raw, err := backend.Get(key)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0x10
	if err := backend.Put(key, raw); err != nil {
		t.Fatal(err)
	}

	v, err := rd.RetrieveRegion(ctx, 0, 0.2, 0.2, 0.6, 0.6)
	if err != nil {
		t.Fatalf("degraded RetrieveRegion over corrupt tile: %v", err)
	}
	if v.Level != 1 || v.Degradation == nil || v.Degradation.AchievedLevel != 1 {
		t.Fatalf("Level = %d (report %+v), want achieved level 1", v.Level, v.Degradation)
	}
	if v.Cost == nil || !v.Cost.Degraded {
		t.Fatalf("Cost = %+v, want Degraded", v.Cost)
	}
	ledgersAgree(t, "degraded region", v.Timings, v.Cost)
	if v.CountHave() == 0 {
		t.Fatal("degraded region view restored no vertex")
	}
	for i, ok := range v.Have {
		if ok && math.Float64bits(v.Data[i]) != math.Float64bits(want.Data[i]) {
			t.Fatalf("vertex %d = %v, level-1 Retrieve has %v", i, v.Data[i], want.Data[i])
		}
	}
}
