package core

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/adios"
	"repro/internal/bp"
	"repro/internal/compress"
	"repro/internal/mesh"
)

// encodeMeshV1 writes CMSH version 1 — raw coordinates, one running zig-zag
// varint delta over all corners. Only tests write it: it builds the archives
// the reader must keep opening.
func encodeMeshV1(m *mesh.Mesh) []byte {
	out := binary.LittleEndian.AppendUint32(nil, 0x48534d43)
	out = binary.LittleEndian.AppendUint16(out, 1)
	out = binary.AppendUvarint(out, uint64(len(m.Verts)))
	out = binary.AppendUvarint(out, uint64(len(m.Tris)))
	for _, v := range m.Verts {
		out = binary.LittleEndian.AppendUint64(out, math.Float64bits(v.X))
		out = binary.LittleEndian.AppendUint64(out, math.Float64bits(v.Y))
	}
	prev := int64(0)
	for _, t := range m.Tris {
		for _, idx := range t {
			out = binary.AppendVarint(out, int64(idx)-prev)
			prev = int64(idx)
		}
	}
	return out
}

// restoreGeometry copies every container of src into a fresh store with each
// geometry variable re-encoded by enc — how a test obtains an archive whose
// geometry is not what today's writer emits.
func restoreGeometry(t *testing.T, src *adios.IO, enc func(*mesh.Mesh) ([]byte, map[string]string)) *adios.IO {
	t.Helper()
	ctx := context.Background()
	dst := newIO()
	for _, key := range src.H.Keys() {
		blob, _, err := src.H.Get(ctx, key, 1)
		if err != nil {
			t.Fatal(err)
		}
		r, err := bp.OpenBytes(blob)
		if err != nil {
			t.Fatal(err)
		}
		w := bp.NewWriter()
		for _, k := range r.AttrKeys() {
			v, _ := r.Attr(k)
			w.SetAttr(k, v)
		}
		for _, v := range r.Vars() {
			payload, err := r.ReadBytes(v)
			if err != nil {
				t.Fatal(err)
			}
			attrs := v.Attrs
			if v.Name == "mesh" {
				m, _, err := mesh.Decode(payload)
				if err != nil {
					t.Fatal(err)
				}
				payload, attrs = enc(m)
			}
			if err := w.PutBytes(v.Name, v.Level, payload, attrs); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := dst.WriteContainer(ctx, key, w, src.H.Where(key)); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

// asBeforeVersion2 is the geometry encoding of every archive written before
// CMSH version 2: version 1 inside an outer DEFLATE, no codec attribute.
func asBeforeVersion2(t *testing.T) func(*mesh.Mesh) ([]byte, map[string]string) {
	return func(m *mesh.Mesh) ([]byte, map[string]string) {
		z, err := compress.DeflateAppend(nil, encodeMeshV1(m))
		if err != nil {
			t.Fatal(err)
		}
		return z, nil
	}
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

func sameGeometry(a, b *mesh.Mesh) bool {
	if len(a.Verts) != len(b.Verts) || len(a.Tris) != len(b.Tris) {
		return false
	}
	for i, v := range a.Verts {
		if math.Float64bits(v.X) != math.Float64bits(b.Verts[i].X) || math.Float64bits(v.Y) != math.Float64bits(b.Verts[i].Y) {
			return false
		}
	}
	for i, tr := range a.Tris {
		if tr != b.Tris[i] {
			return false
		}
	}
	return true
}

// An archive from before CMSH version 2 (the committed legacy fixture is one;
// this builds a larger one, with tiles and a campaign) must open through
// today's reader and give the same views, level for level and bit for bit,
// as the same data written today.
func TestArchiveFromBeforeVersion2ReadsBack(t *testing.T) {
	ctx := context.Background()
	now := newIO()
	ds := testDataset("dpot", 40)
	if _, err := Write(ctx, now, ds, Options{Levels: 4, Chunks: 4, RelTolerance: 1e-6}); err != nil {
		t.Fatal(err)
	}
	sw, err := NewSeriesWriter(ctx, now, "camp", ds.Mesh, 2.5, Options{Levels: 3, Chunks: 2, RelTolerance: 1e-6})
	if err != nil {
		t.Fatal(err)
	}
	for s := 0; s < 2; s++ {
		field := make([]float64, len(ds.Data))
		for i, x := range ds.Data {
			field[i] = x * float64(s+1)
		}
		if _, err := sw.WriteStep(ctx, field); err != nil {
			t.Fatal(err)
		}
	}
	old := restoreGeometry(t, now, asBeforeVersion2(t))

	rdNow, err := OpenReader(ctx, now, "dpot")
	if err != nil {
		t.Fatal(err)
	}
	rdOld, err := OpenReader(ctx, old, "dpot")
	if err != nil {
		t.Fatal(err)
	}
	for l := 3; l >= 0; l-- {
		want, err := rdNow.Retrieve(ctx, l)
		if err != nil {
			t.Fatal(err)
		}
		got, err := rdOld.Retrieve(ctx, l)
		if err != nil {
			t.Fatalf("level %d of the old archive: %v", l, err)
		}
		if !sameBits(got.Data, want.Data) || !sameGeometry(got.Mesh, want.Mesh) {
			t.Fatalf("level %d: the old archive reads back differently", l)
		}
	}
	wantR, err := rdNow.RetrieveRegion(ctx, 0, 0.2, 0.2, 0.7, 0.6)
	if err != nil {
		t.Fatal(err)
	}
	gotR, err := rdOld.RetrieveRegion(ctx, 0, 0.2, 0.2, 0.7, 0.6)
	if err != nil {
		t.Fatal(err)
	}
	if !sameBits(gotR.Data, wantR.Data) || gotR.CountHave() != wantR.CountHave() {
		t.Fatal("region of the old archive reads back differently")
	}

	srNow, err := OpenSeriesReader(ctx, now, "camp")
	if err != nil {
		t.Fatal(err)
	}
	srOld, err := OpenSeriesReader(ctx, old, "camp")
	if err != nil {
		t.Fatal(err)
	}
	for l := 2; l >= 0; l-- {
		want, err := srNow.RetrieveStep(ctx, 1, l)
		if err != nil {
			t.Fatal(err)
		}
		got, err := srOld.RetrieveStep(ctx, 1, l)
		if err != nil {
			t.Fatalf("step 1 level %d of the old campaign: %v", l, err)
		}
		if !sameBits(got.Data, want.Data) || !sameGeometry(got.Mesh, want.Mesh) {
			t.Fatalf("step 1 level %d: the old campaign reads back differently", l)
		}
	}
}

// The geometry variable's codec attribute selects the decoder; a tag this
// reader does not know, and bytes after a version-2 encoding, are errors.
func TestGeometryCodecDispatch(t *testing.T) {
	ctx := context.Background()
	now := newIO()
	if _, err := Write(ctx, now, testDataset("dpot", 16), Options{Levels: 2}); err != nil {
		t.Fatal(err)
	}
	for name, tc := range map[string]struct {
		enc  func(*mesh.Mesh) ([]byte, map[string]string)
		want string
	}{
		"unknown tag": {func(m *mesh.Mesh) ([]byte, map[string]string) {
			return mesh.Encode(m), map[string]string{"codec": "cmsh9"}
		}, "unknown geometry codec"},
		"trailing bytes": {func(m *mesh.Mesh) ([]byte, map[string]string) {
			return append(mesh.Encode(m), 0), map[string]string{"codec": meshCodecV2}
		}, "after the encoding"},
		"untagged version 2": {func(m *mesh.Mesh) ([]byte, map[string]string) {
			return mesh.Encode(m), nil
		}, "inflate"},
	} {
		rd, err := OpenReader(ctx, restoreGeometry(t, now, tc.enc), "dpot")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := rd.Retrieve(ctx, 0); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want one mentioning %q", name, err, tc.want)
		}
	}
}

// coldWalk is the exploration loop: base view, then refine to full accuracy,
// handing each level's view to see.
func coldWalk(ctx context.Context, rd *Reader, see func(*View) error) (*View, error) {
	v, err := rd.Base(ctx)
	for err == nil {
		if err = see(v); err != nil || v.Level == 0 {
			break
		}
		err = rd.Augment(ctx, v)
	}
	return v, err
}

// Augment reads its three inputs through one handle at once and decodes
// geometry plane-parallel; walks sharing a Reader also share its geometry
// flights. None of that may show in what a walk returns or in what it is
// billed: views are bit-identical to a one-worker serial walk, the modeled
// I/O of a lone walk is exactly the serial walk's at any worker count, and
// concurrent walks together are billed exactly what the same walks cost one
// after the other — each level's geometry once.
func TestConcurrentColdWalksMatchSerial(t *testing.T) {
	ctx := context.Background()
	aio := newIO()
	ds := testDataset("dpot", 48)
	if _, err := Write(ctx, aio, ds, Options{Levels: 4, Chunks: 4, RelTolerance: 1e-6}); err != nil {
		t.Fatal(err)
	}
	open := func(workers int) *Reader {
		rd, err := OpenReader(ctx, aio, "dpot")
		if err != nil {
			t.Fatal(err)
		}
		rd.SetWorkers(workers)
		return rd
	}
	box := [4]float64{0.15, 0.2, 0.8, 0.7}

	// Serial reference, one worker: a cold walk, then warm ones.
	ref := open(1)
	want := map[int][]float64{}
	cold, err := coldWalk(ctx, ref, func(v *View) error {
		want[v.Level] = append([]float64(nil), v.Data...)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	warm, err := coldWalk(ctx, ref, func(*View) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	wantRegion, err := ref.RetrieveRegion(ctx, 0, box[0], box[1], box[2], box[3])
	if err != nil {
		t.Fatal(err)
	}
	if cold.Timings.IOBytes <= warm.Timings.IOBytes {
		t.Fatalf("cold walk moved %d bytes, warm %d: geometry is not being billed", cold.Timings.IOBytes, warm.Timings.IOBytes)
	}
	check := func(v *View) error {
		if !sameBits(v.Data, want[v.Level]) {
			return fmt.Errorf("level %d differs from the serial walk", v.Level)
		}
		return nil
	}

	// A lone cold walk on a wide pool: same bill to the last bit.
	solo, err := coldWalk(ctx, open(4), check)
	if err != nil {
		t.Fatal(err)
	}
	if solo.Timings.IOBytes != cold.Timings.IOBytes || solo.Timings.IOSeconds != cold.Timings.IOSeconds {
		t.Fatalf("workers=4 cold walk billed %d B / %v s, serial %d B / %v s",
			solo.Timings.IOBytes, solo.Timings.IOSeconds, cold.Timings.IOBytes, cold.Timings.IOSeconds)
	}

	// Eight cold walks and four region reads at once on one fresh reader.
	const walks, regions = 8, 4
	rd := open(4)
	var (
		wg      sync.WaitGroup
		mu      sync.Mutex
		bytes   int64
		seconds float64
	)
	errs := make([]error, walks+regions)
	bill := func(tm PhaseTimings) {
		mu.Lock()
		bytes += tm.IOBytes
		seconds += tm.IOSeconds
		mu.Unlock()
	}
	for g := 0; g < walks+regions; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if g < walks {
				v, err := coldWalk(ctx, rd, check)
				if err != nil {
					errs[g] = err
					return
				}
				if v.Timings.IOBytes < warm.Timings.IOBytes || v.Timings.IOBytes > cold.Timings.IOBytes {
					errs[g] = fmt.Errorf("walk billed %d bytes, outside [warm %d, cold %d]", v.Timings.IOBytes, warm.Timings.IOBytes, cold.Timings.IOBytes)
				}
				bill(v.Timings)
				return
			}
			rv, err := rd.RetrieveRegion(ctx, 0, box[0], box[1], box[2], box[3])
			if err != nil {
				errs[g] = err
				return
			}
			if !sameBits(rv.Data, wantRegion.Data) {
				errs[g] = errors.New("region differs from the serial read")
			}
			bill(rv.Timings)
		}()
	}
	wg.Wait()
	for g, err := range errs {
		if err != nil {
			t.Fatalf("goroutine %d: %v", g, err)
		}
	}
	// The serial schedule of the same operations: one walk pays for the
	// geometry, everything after it is warm.
	wantBytes := cold.Timings.IOBytes + (walks-1)*warm.Timings.IOBytes + regions*wantRegion.Timings.IOBytes
	if bytes != wantBytes {
		t.Fatalf("concurrent operations billed %d bytes in total, serially %d", bytes, wantBytes)
	}
	// Which operation pays for a level's geometry is a race, so the float
	// sum associates differently from run to run; the terms are the same.
	wantSeconds := cold.Timings.IOSeconds + (walks-1)*warm.Timings.IOSeconds + regions*wantRegion.Timings.IOSeconds
	if math.Abs(seconds-wantSeconds) > 1e-9*wantSeconds {
		t.Fatalf("concurrent operations billed %v s in total, serially %v s", seconds, wantSeconds)
	}
}

// A cancellation landing in the middle of Augment's concurrent reads makes
// it return context.Canceled with every unit finished, and leaves the view
// the complete coarser view it was.
func TestAugmentCancellationLeavesViewIntact(t *testing.T) {
	aio := newIO()
	ds := testDataset("dpot", 32)
	if _, err := Write(context.Background(), aio, ds, Options{Levels: 3, Chunks: 4, RelTolerance: 1e-6}); err != nil {
		t.Fatal(err)
	}
	rd, err := OpenReader(context.Background(), aio, "dpot")
	if err != nil {
		t.Fatal(err)
	}
	rd.SetWorkers(4)
	want, err := rd.Retrieve(context.Background(), 1)
	if err != nil {
		t.Fatal(err)
	}
	// A second reader, so nothing about level 1 is cached.
	rd, err = OpenReader(context.Background(), aio, "dpot")
	if err != nil {
		t.Fatal(err)
	}
	rd.SetWorkers(4)
	v, err := rd.Base(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	before := *v
	beforeData := append([]float64(nil), v.Data...)

	for i := 0; i < aio.H.NumTiers(); i++ {
		tier := aio.H.Tier(i)
		tier.Backend = slowBackend{Backend: tier.Backend, delay: 30 * time.Millisecond}
	}
	goroutines := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	timer := time.AfterFunc(10*time.Millisecond, cancel)
	defer timer.Stop()
	t0 := time.Now()
	err = rd.Augment(ctx, v)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled Augment: err = %v, want context.Canceled", err)
	}
	if elapsed := time.Since(t0); elapsed > 500*time.Millisecond {
		t.Fatalf("cancelled Augment took %v", elapsed)
	}
	// Augment waits for its units, so nothing it started is still running.
	for deadline := time.Now().Add(2 * time.Second); runtime.NumGoroutine() > goroutines; {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines before Augment, %d after it returned", goroutines, runtime.NumGoroutine())
		}
		time.Sleep(time.Millisecond)
	}
	if v.Level != before.Level || v.Mesh != before.Mesh || v.ErrorBound != before.ErrorBound || !sameBits(v.Data, beforeData) {
		t.Fatal("failed Augment changed the view")
	}

	// The same view refines normally afterwards.
	for i := 0; i < aio.H.NumTiers(); i++ {
		tier := aio.H.Tier(i)
		tier.Backend = tier.Backend.(slowBackend).Backend
	}
	if err := rd.Augment(context.Background(), v); err != nil {
		t.Fatal(err)
	}
	if v.Level != 1 || !sameBits(v.Data, want.Data) {
		t.Fatal("view refined after a cancelled Augment differs from a clean retrieval")
	}
}
