package delta

import (
	"context"
	"encoding/binary"
	"math"
	"runtime"
	"testing"
	"testing/quick"

	"repro/internal/decimate"
	"repro/internal/mesh"
)

func field(m *mesh.Mesh, f func(x, y float64) float64) []float64 {
	out := make([]float64, len(m.Verts))
	for i, v := range m.Verts {
		out[i] = f(v.X, v.Y)
	}
	return out
}

func wave(x, y float64) float64 { return math.Sin(4*x)*math.Cos(3*y) + 0.2*x }

// decimated builds a (fine, coarse) level pair for tests.
func decimated(t *testing.T, m *mesh.Mesh, data []float64, ratio float64) (*mesh.Mesh, []float64) {
	t.Helper()
	res, err := decimate.Decimate(m, data, decimate.TargetForRatio(m.NumVerts(), ratio), decimate.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return res.Coarse, res.Data
}

func TestBuildMappingCoversAllVertices(t *testing.T) {
	fine := mesh.Rect(16, 16, 1, 1)
	data := field(fine, wave)
	coarse, _ := decimated(t, fine, data, 4)
	mp, err := Build(fine, coarse)
	if err != nil {
		t.Fatal(err)
	}
	if err := mp.Validate(fine, coarse); err != nil {
		t.Fatal(err)
	}
	if len(mp) != fine.NumVerts() {
		t.Fatalf("mapping length %d, want %d", len(mp), fine.NumVerts())
	}
}

func TestBuildMappingErrorsOnEmptyCoarse(t *testing.T) {
	fine := mesh.Rect(4, 4, 1, 1)
	if _, err := Build(fine, &mesh.Mesh{}); err == nil {
		t.Fatal("Build accepted coarse mesh with no triangles")
	}
}

func TestComputeRestoreRoundTrip(t *testing.T) {
	for _, estName := range []string{"mean", "barycentric"} {
		est, err := EstimatorByName(estName)
		if err != nil {
			t.Fatal(err)
		}
		fine := mesh.Disk(14, 56, 1.0)
		data := field(fine, wave)
		coarse, coarseData := decimated(t, fine, data, 4)
		mp, err := Build(fine, coarse)
		if err != nil {
			t.Fatal(err)
		}
		d, err := ComputeInto(context.Background(), nil, fine, data, coarse, coarseData, mp, est, nil)
		if err != nil {
			t.Fatal(err)
		}
		got, err := RestoreInto(context.Background(), nil, fine, coarse, coarseData, mp, d, est, nil)
		if err != nil {
			t.Fatal(err)
		}
		for i := range data {
			// (a-e)+e may round by one ulp of the estimate.
			tol := 4 * math.Max(math.Abs(data[i]), 1) * 2.3e-16
			if math.Abs(got[i]-data[i]) > tol {
				t.Fatalf("%s: vertex %d restored %g, want %g", estName, i, got[i], data[i])
			}
		}
	}
}

func TestDeltasSmootherThanLevel(t *testing.T) {
	// The core Canopus observation (Fig. 4): deltas have much smaller
	// spread than the field itself for smooth data.
	fine := mesh.Rect(32, 32, 1, 1)
	data := field(fine, wave)
	coarse, coarseData := decimated(t, fine, data, 4)
	mp, err := Build(fine, coarse)
	if err != nil {
		t.Fatal(err)
	}
	d, err := ComputeInto(context.Background(), nil, fine, data, coarse, coarseData, mp, BarycentricEstimator{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	variance := func(x []float64) float64 {
		var mean float64
		for _, v := range x {
			mean += v
		}
		mean /= float64(len(x))
		var s float64
		for _, v := range x {
			s += (v - mean) * (v - mean)
		}
		return s / float64(len(x))
	}
	if vd, vl := variance(d), variance(data); vd >= vl/2 {
		t.Fatalf("delta variance %g not materially smaller than level variance %g", vd, vl)
	}
}

func TestMeanEstimatorMatchesPaperWeights(t *testing.T) {
	e := MeanEstimator{}
	got := e.Estimate(3, 6, 9, 0.7, 0.2, 0.1)
	if math.Abs(got-6) > 1e-12 {
		t.Fatalf("mean estimate = %g, want 6 (weights must be 1/3 each)", got)
	}
}

func TestBarycentricEstimatorInterpolates(t *testing.T) {
	e := BarycentricEstimator{}
	if got := e.Estimate(1, 2, 3, 1, 0, 0); got != 1 {
		t.Fatalf("corner weight: got %g, want 1", got)
	}
	if got := e.Estimate(1, 2, 3, 0, 0, 1); got != 3 {
		t.Fatalf("corner weight: got %g, want 3", got)
	}
}

func TestEstimatorByName(t *testing.T) {
	for _, name := range []string{"mean", "barycentric"} {
		e, err := EstimatorByName(name)
		if err != nil {
			t.Fatal(err)
		}
		if e.Name() != name {
			t.Fatalf("EstimatorByName(%q).Name() = %q", name, e.Name())
		}
	}
	if e, err := EstimatorByName(""); err != nil || e.Name() != "mean" {
		t.Fatal("empty name must default to mean")
	}
	if _, err := EstimatorByName("cubic"); err == nil {
		t.Fatal("accepted unknown estimator")
	}
}

func TestComputeArgErrors(t *testing.T) {
	fine := mesh.Rect(8, 8, 1, 1)
	data := field(fine, wave)
	coarse, coarseData := decimated(t, fine, data, 2)
	mp, err := Build(fine, coarse)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ComputeInto(context.Background(), nil, fine, data[:3], coarse, coarseData, mp, MeanEstimator{}, nil); err == nil {
		t.Error("accepted short fine data")
	}
	if _, err := ComputeInto(context.Background(), nil, fine, data, coarse, coarseData[:2], mp, MeanEstimator{}, nil); err == nil {
		t.Error("accepted short coarse data")
	}
	if _, err := ComputeInto(context.Background(), nil, fine, data, coarse, coarseData, mp[:4], MeanEstimator{}, nil); err == nil {
		t.Error("accepted short mapping")
	}
	bad := append(Mapping(nil), mp...)
	bad[0] = int32(coarse.NumTris() + 5)
	if _, err := ComputeInto(context.Background(), nil, fine, data, coarse, coarseData, bad, MeanEstimator{}, nil); err == nil {
		t.Error("accepted out-of-range mapping")
	}
	if _, err := RestoreInto(context.Background(), nil, fine, coarse, coarseData, mp, data[:1], MeanEstimator{}, nil); err == nil {
		t.Error("RestoreInto accepted short delta")
	}
}

func TestMappingEncodeDecodeRoundTrip(t *testing.T) {
	fine := mesh.Rect(12, 12, 1, 1)
	data := field(fine, wave)
	coarse, _ := decimated(t, fine, data, 4)
	mp, err := Build(fine, coarse)
	if err != nil {
		t.Fatal(err)
	}
	enc := mp.Encode()
	got, n, err := DecodeMapping(enc)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(enc) {
		t.Fatalf("consumed %d of %d bytes", n, len(enc))
	}
	if len(got) != len(mp) {
		t.Fatalf("decoded %d entries, want %d", len(got), len(mp))
	}
	for i := range mp {
		if got[i] != mp[i] {
			t.Fatalf("entry %d = %d, want %d", i, got[i], mp[i])
		}
	}
}

func TestMappingEncodeCompact(t *testing.T) {
	// Delta-varint coding should stay near 1 byte/entry for locality-
	// friendly mappings.
	fine := mesh.Rect(24, 24, 1, 1)
	data := field(fine, wave)
	coarse, _ := decimated(t, fine, data, 4)
	mp, err := Build(fine, coarse)
	if err != nil {
		t.Fatal(err)
	}
	enc := mp.Encode()
	if len(enc) > 3*len(mp) {
		t.Fatalf("mapping encoded to %d bytes for %d entries (> 3 B/entry)", len(enc), len(mp))
	}
}

func TestDecodeMappingErrors(t *testing.T) {
	if _, _, err := DecodeMapping(nil); err == nil {
		t.Error("DecodeMapping(nil) succeeded")
	}
	mp := Mapping{1, 2, 3}
	enc := mp.Encode()
	if _, _, err := DecodeMapping(enc[:1]); err == nil {
		t.Error("DecodeMapping(truncated) succeeded")
	}
	// Negative index: encode a mapping then corrupt first delta to -1.
	bad := []byte{3, 1, 1, 1} // count=3 then deltas
	bad[1] = 1                // varint 1 => -1 zig-zag
	if got, _, err := DecodeMapping(bad); err == nil {
		t.Errorf("DecodeMapping accepted negative index, got %v", got)
	}
	// A count larger than the remaining bytes is rejected before the
	// decoder allocates for it.
	forged := append(binary.AppendUvarint(nil, 10<<16), make([]byte, 1<<16)...)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, _, err := DecodeMapping(forged)
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Error("DecodeMapping accepted a forged count")
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<16 {
		t.Errorf("forged count over %d bytes allocated %d bytes", len(forged), grew)
	}
	// 2^32+5 would wrap to index 5 as an int32 and pass Validate.
	if got, _, err := DecodeMapping(wrappingIndex); err == nil {
		t.Errorf("DecodeMapping accepted index 2^32+5, got %v", got)
	}
}

// TestQuickRoundTripVariousRatios: the compute/restore round trip holds for
// random fields and ratios.
func TestQuickRoundTripVariousRatios(t *testing.T) {
	f := func(seed int64, ratioSel uint8) bool {
		ratio := []float64{2, 4, 8}[int(ratioSel)%3]
		fine := mesh.Rect(12, 12, 1, 1)
		rng := newRng(seed)
		data := make([]float64, fine.NumVerts())
		for i := range data {
			data[i] = rng()
		}
		res, err := decimate.Decimate(fine, data, decimate.TargetForRatio(fine.NumVerts(), ratio), decimate.Options{})
		if err != nil {
			return false
		}
		mp, err := Build(fine, res.Coarse)
		if err != nil {
			return false
		}
		d, err := ComputeInto(context.Background(), nil, fine, data, res.Coarse, res.Data, mp, MeanEstimator{}, nil)
		if err != nil {
			return false
		}
		got, err := RestoreInto(context.Background(), nil, fine, res.Coarse, res.Data, mp, d, MeanEstimator{}, nil)
		if err != nil {
			return false
		}
		for i := range data {
			if math.Abs(got[i]-data[i]) > 1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// newRng returns a tiny deterministic generator in [-1, 1).
func newRng(seed int64) func() float64 {
	s := uint64(seed)*0x9e3779b97f4a7c15 + 1
	return func() float64 {
		s ^= s << 13
		s ^= s >> 7
		s ^= s << 17
		return float64(int64(s%2000)-1000) / 1000
	}
}

func BenchmarkComputeDelta(b *testing.B) {
	fine := mesh.Disk(40, 128, 1.0)
	data := field(fine, wave)
	res, err := decimate.Decimate(fine, data, decimate.TargetForRatio(fine.NumVerts(), 4), decimate.Options{})
	if err != nil {
		b.Fatal(err)
	}
	mp, err := Build(fine, res.Coarse)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ComputeInto(context.Background(), nil, fine, data, res.Coarse, res.Data, mp, MeanEstimator{}, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRestore(b *testing.B) {
	fine := mesh.Disk(40, 128, 1.0)
	data := field(fine, wave)
	res, err := decimate.Decimate(fine, data, decimate.TargetForRatio(fine.NumVerts(), 4), decimate.Options{})
	if err != nil {
		b.Fatal(err)
	}
	mp, err := Build(fine, res.Coarse)
	if err != nil {
		b.Fatal(err)
	}
	d, err := ComputeInto(context.Background(), nil, fine, data, res.Coarse, res.Data, mp, MeanEstimator{}, nil)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := RestoreInto(context.Background(), nil, fine, res.Coarse, res.Data, mp, d, MeanEstimator{}, nil); err != nil {
			b.Fatal(err)
		}
	}
}
