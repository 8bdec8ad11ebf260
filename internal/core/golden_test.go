package core_test

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"sort"
	"strings"
	"testing"

	"repro/internal/adios"
	"repro/internal/bp"
	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/storage"
)

// storedGolden pins every byte the write path stores for the paper's XGC1
// plane: each hash covers all stored keys, in sorted order, with their
// contents. They move only if the hierarchy (collapse order, coarse
// geometry, restriction weights), the delta, a codec or a container layout
// changes — i.e. if old archives and new ones would differ. They were first
// recorded from the map-based decimation this repository started with,
// re-recorded once in the change that moved geometry to CMSH version 2
// (internal/mesh/codec.go) — nonGeometryGolden below, untouched by that
// change, showed everything else stayed where it was — and both re-recorded
// once more when the plane's hierarchy moved to the partitioned collapse
// order (internal/decimate), which changes every level's geometry and data,
// again when each coarse level came to be numbered in its input's order,
// which changes every coarse level's geometry, mapping and tile contents,
// and again when the coarse triangles stopped being rotated and sorted and
// kept their input slots instead, which changes the same.
var storedGolden = map[string]string{
	"write/delta":  "c25d915285a11f21cd8d351a1a115f6ca3c5c1c32c1a926c124bbb1bad02f576",
	"write/direct": "d4b2ee702ea4950708a1730a2ce1f3ad384571d60dfe7aa33a8e30b06ed0f368",
	"series/delta": "2f98664ca0a75091e6d53dfb194d8964b65ca032c1d35cdb29a927cb89fce989",
}

// hashStored digests every key in the hierarchy and its stored bytes.
func hashStored(t *testing.T, aio *adios.IO) string {
	t.Helper()
	h := sha256.New()
	var n [8]byte
	for _, k := range aio.H.Keys() {
		b, _, err := aio.H.Get(context.Background(), k, 1)
		if err != nil {
			t.Fatalf("get %q: %v", k, err)
		}
		binary.LittleEndian.PutUint64(n[:], uint64(len(k)))
		h.Write(n[:])
		h.Write([]byte(k))
		binary.LittleEndian.PutUint64(n[:], uint64(len(b)))
		h.Write(n[:])
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))
}

func checkStored(t *testing.T, name string, aio *adios.IO) {
	t.Helper()
	if got, want := hashStored(t, aio), storedGolden[name]; got != want {
		t.Errorf("%s: stored bytes changed:\n got %s\nwant %s", name, got, want)
	}
}

// goldenStores writes the three configurations the goldens cover — one
// unamortised write per mode and a 3-step campaign over a hierarchy built
// once through the TrackRestriction path (the series writer is delta-mode
// only) — and hands each store to check under its golden name.
func goldenStores(t *testing.T, check func(name string, aio *adios.IO)) {
	t.Helper()
	ctx := context.Background()
	opts := core.Options{Levels: 4, Chunks: 8, RelTolerance: 1e-4}

	ds := sim.XGC1(sim.XGC1Config{}).Dataset
	for _, mode := range []core.Mode{core.ModeDelta, core.ModeDirect} {
		aio := adios.NewIO(storage.TitanTwoTier(0), nil)
		o := opts
		o.Mode = mode
		if _, err := core.Write(ctx, aio, ds, o); err != nil {
			t.Fatalf("write %v: %v", mode, err)
		}
		check("write/"+mode.String(), aio)
	}

	steps := sim.XGC1Sequence(sim.XGC1Config{}, 3)
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, v := range steps[0].Dataset.Data {
		lo, hi = math.Min(lo, v), math.Max(hi, v)
	}
	aio := adios.NewIO(storage.TitanTwoTier(0), nil)
	sw, err := core.NewSeriesWriter(ctx, aio, "dpot", steps[0].Dataset.Mesh, hi-lo, opts)
	if err != nil {
		t.Fatal(err)
	}
	for s, st := range steps {
		if _, err := sw.WriteStep(ctx, st.Dataset.Data); err != nil {
			t.Fatalf("step %d: %v", s, err)
		}
	}
	check("series/delta", aio)
}

func TestWriteStoredBytesGolden(t *testing.T) {
	goldenStores(t, func(name string, aio *adios.IO) { checkStored(t, name, aio) })
}

// nonGeometryGolden pins everything the write path stores except the mesh
// geometry encoding: base data, delta tiles and mappings with their variable
// attributes, and every container attribute except bytes-L<l> (which records
// container sizes and so moves with the geometry's size). A change to how
// geometry is encoded must leave these hashes alone.
var nonGeometryGolden = map[string]string{
	"write/delta":  "d2254c463f872a2c91f3154bbc6eef58ac46a49ca42628f6ab05444fece47171",
	"write/direct": "a54e12313a7e7e126b946dc58f2ffb02e3951587a697e0a49c73ef4f34f6b3b8",
	"series/delta": "944f730331e89b73a9420d349b7ed561300621dd6be5db3e6dfc79f4d1d47614",
}

// hashNonGeometry digests, for every stored container in key order, the
// container attributes and each non-mesh variable's name, level, attributes
// and payload.
func hashNonGeometry(t *testing.T, aio *adios.IO) string {
	t.Helper()
	h := sha256.New()
	var n [8]byte
	put := func(b []byte) {
		binary.LittleEndian.PutUint64(n[:], uint64(len(b)))
		h.Write(n[:])
		h.Write(b)
	}
	for _, k := range aio.H.Keys() {
		b, _, err := aio.H.Get(context.Background(), k, 1)
		if err != nil {
			t.Fatalf("get %q: %v", k, err)
		}
		r, err := bp.OpenBytes(b)
		if err != nil {
			t.Fatalf("open %q: %v", k, err)
		}
		put([]byte(k))
		for _, ak := range r.AttrKeys() {
			if strings.HasPrefix(ak, "bytes-L") {
				continue
			}
			av, _ := r.Attr(ak)
			put([]byte(ak))
			put([]byte(av))
		}
		for _, v := range r.Vars() {
			if v.Name == "mesh" {
				continue
			}
			payload, err := r.ReadBytes(v)
			if err != nil {
				t.Fatalf("read %s of %q: %v", v.Name, k, err)
			}
			put([]byte(v.Name))
			binary.LittleEndian.PutUint64(n[:], uint64(v.Level))
			h.Write(n[:])
			attrs := make([]string, 0, len(v.Attrs))
			for ak, av := range v.Attrs {
				attrs = append(attrs, ak+"="+av)
			}
			sort.Strings(attrs)
			put([]byte(strings.Join(attrs, "\x00")))
			put(payload)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

func TestStoredNonGeometryGolden(t *testing.T) {
	goldenStores(t, func(name string, aio *adios.IO) {
		if got, want := hashNonGeometry(t, aio), nonGeometryGolden[name]; got != want {
			t.Errorf("%s: stored non-geometry content changed:\n got %s\nwant %s", name, got, want)
		}
	})
}
