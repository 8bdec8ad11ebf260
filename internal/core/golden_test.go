package core_test

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"

	"repro/internal/adios"
	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/storage"
)

// storedGolden pins every byte the write path stores for the paper's XGC1
// plane: each hash covers all stored keys, in sorted order, with their
// contents. The values were recorded from the map-based decimation this
// repository started with; they move only if the hierarchy (collapse order,
// coarse geometry, restriction weights), the delta, the codec or a container
// layout changes — i.e. if old archives and new ones would differ.
var storedGolden = map[string]string{
	"write/delta":  "f5ed3351bfb7ea109447ea04560d88a13c193edb08d18ad7f86d0f2b52fe62f8",
	"write/direct": "0f30a2cafe4dd31ef11424d95008446286a4b0cfdd13daa81503afefd0b60951",
	"series/delta": "1f5f491b8b1345c38fa015711aa9d723448aab1953e1374e7df5bac79ca71cf2",
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

func TestWriteStoredBytesGolden(t *testing.T) {
	ctx := context.Background()
	opts := core.Options{Levels: 4, Chunks: 8, RelTolerance: 1e-4}

	// One unamortised write per mode.
	ds := sim.XGC1(sim.XGC1Config{}).Dataset
	for _, mode := range []core.Mode{core.ModeDelta, core.ModeDirect} {
		aio := adios.NewIO(storage.TitanTwoTier(0), nil)
		o := opts
		o.Mode = mode
		if _, err := core.Write(ctx, aio, ds, o); err != nil {
			t.Fatalf("write %v: %v", mode, err)
		}
		checkStored(t, "write/"+mode.String(), aio)
	}

	// A 3-step campaign over a hierarchy built once through the
	// TrackRestriction path (the series writer is delta-mode only).
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
	checkStored(t, "series/delta", aio)
}
