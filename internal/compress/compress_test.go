package compress

import (
	"bytes"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// smoothSignal generates n samples of a smooth multi-scale waveform, the
// kind of spatially correlated data scientific codecs are built for.
func smoothSignal(n int, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	a1, a2, a3 := rng.Float64()*10, rng.Float64()*3, rng.Float64()
	p1, p2, p3 := rng.Float64()*6, rng.Float64()*6, rng.Float64()*6
	out := make([]float64, n)
	for i := range out {
		t := float64(i) / float64(n)
		out[i] = a1*math.Sin(2*math.Pi*t+p1) +
			a2*math.Sin(14*math.Pi*t+p2) +
			a3*math.Sin(50*math.Pi*t+p3)
	}
	return out
}

func noisySignal(n int, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	out := make([]float64, n)
	for i := range out {
		out[i] = rng.NormFloat64() * 100
	}
	return out
}

func maxAbsErr(a, b []float64) float64 {
	m := 0.0
	for i := range a {
		if e := math.Abs(a[i] - b[i]); e > m {
			m = e
		}
	}
	return m
}

func lossyCodecs(t *testing.T, tol float64) []Codec {
	t.Helper()
	zfp, err := NewZFP(tol)
	if err != nil {
		t.Fatal(err)
	}
	sz, err := NewSZ(tol)
	if err != nil {
		t.Fatal(err)
	}
	return []Codec{zfp, sz}
}

func losslessCodecs() []Codec {
	return []Codec{NewFPC(16), NewFlate(), Raw{}}
}

func TestLosslessRoundTrip(t *testing.T) {
	inputs := [][]float64{
		nil,
		{0},
		{1.5},
		{-math.MaxFloat64, math.MaxFloat64, math.SmallestNonzeroFloat64},
		{math.NaN(), math.Inf(1), math.Inf(-1)}, // lossless codecs must pass these through
		smoothSignal(1001, 1),
		noisySignal(517, 2),
	}
	for _, c := range losslessCodecs() {
		for i, in := range inputs {
			enc, err := c.Encode(in)
			if err != nil {
				t.Fatalf("%s input %d: Encode: %v", c.Name(), i, err)
			}
			got, err := c.DecodeInto(nil, enc)
			if err != nil {
				t.Fatalf("%s input %d: Decode: %v", c.Name(), i, err)
			}
			if len(got) != len(in) {
				t.Fatalf("%s input %d: len %d, want %d", c.Name(), i, len(got), len(in))
			}
			for j := range in {
				if math.Float64bits(got[j]) != math.Float64bits(in[j]) {
					t.Fatalf("%s input %d: sample %d = %v (%x), want %v (%x)",
						c.Name(), i, j, got[j], math.Float64bits(got[j]), in[j], math.Float64bits(in[j]))
				}
			}
		}
	}
}

func TestLossyErrorBound(t *testing.T) {
	tols := []float64{1e-1, 1e-3, 1e-6, 1e-9}
	inputs := [][]float64{
		smoothSignal(1000, 3),
		noisySignal(1000, 4),
		{0, 0, 0, 0, 0},
		{1e-30, -1e-30, 2e-30, 0},
		{12345.678},
		{1, 2, 3},                   // tail block
		{5, 5, 5, 5, 5, 5, 5, 5, 5}, // constant
	}
	for _, tol := range tols {
		for _, c := range lossyCodecs(t, tol) {
			for i, in := range inputs {
				enc, err := c.Encode(in)
				if err != nil {
					t.Fatalf("%s tol=%g input %d: Encode: %v", c.Name(), tol, i, err)
				}
				got, err := c.DecodeInto(nil, enc)
				if err != nil {
					t.Fatalf("%s tol=%g input %d: Decode: %v", c.Name(), tol, i, err)
				}
				if len(got) != len(in) {
					t.Fatalf("%s tol=%g input %d: len %d, want %d", c.Name(), tol, i, len(got), len(in))
				}
				if e := maxAbsErr(in, got); e > tol {
					t.Fatalf("%s tol=%g input %d: max error %g exceeds bound", c.Name(), tol, i, e)
				}
			}
		}
	}
}

// TestLossyErrorBoundQuick drives random signals through the lossy codecs
// and checks the bound property holds.
func TestLossyErrorBoundQuick(t *testing.T) {
	f := func(seed int64, tolExp uint8) bool {
		tol := math.Ldexp(1, -int(tolExp%30)-1) // 2^-1 .. 2^-30
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(200)
		in := make([]float64, n)
		scale := math.Ldexp(1, rng.Intn(40)-20)
		for i := range in {
			in[i] = rng.NormFloat64() * scale
		}
		for _, c := range lossyCodecs(t, tol) {
			enc, err := c.Encode(in)
			if err != nil {
				return false
			}
			got, err := c.DecodeInto(nil, enc)
			if err != nil || len(got) != n {
				return false
			}
			if maxAbsErr(in, got) > tol {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestLosslessRoundTripQuick is the property test for the lossless codecs.
func TestLosslessRoundTripQuick(t *testing.T) {
	f := func(in []float64) bool {
		for _, c := range losslessCodecs() {
			enc, err := c.Encode(in)
			if err != nil {
				return false
			}
			got, err := c.DecodeInto(nil, enc)
			if err != nil || len(got) != len(in) {
				return false
			}
			for i := range in {
				if math.Float64bits(got[i]) != math.Float64bits(in[i]) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestLossyRejectsNonFinite(t *testing.T) {
	for _, c := range lossyCodecs(t, 1e-3) {
		for _, bad := range [][]float64{{math.NaN()}, {1, math.Inf(1)}, {math.Inf(-1), 2}} {
			if _, err := c.Encode(bad); err == nil {
				t.Errorf("%s: Encode accepted non-finite input", c.Name())
			}
		}
	}
}

func TestZFPNearLosslessAtZeroTolerance(t *testing.T) {
	z, err := NewZFP(0)
	if err != nil {
		t.Fatal(err)
	}
	in := smoothSignal(400, 5)
	enc, err := z.Encode(in)
	if err != nil {
		t.Fatal(err)
	}
	got, err := z.DecodeInto(nil, enc)
	if err != nil {
		t.Fatal(err)
	}
	// Error bounded by fixed-point quantization: ~2^-49 of magnitude.
	var amax float64
	for _, v := range in {
		amax = math.Max(amax, math.Abs(v))
	}
	if e := maxAbsErr(in, got); e > amax*math.Ldexp(1, -48) {
		t.Fatalf("zero-tolerance error %g too large for max magnitude %g", e, amax)
	}
}

func TestZFPCompressesSmoothBetterThanNoisy(t *testing.T) {
	z, err := NewZFP(1e-6)
	if err != nil {
		t.Fatal(err)
	}
	smooth := smoothSignal(4096, 6)
	noisy := noisySignal(4096, 7)
	// Normalize magnitudes so only smoothness differs.
	var sm, nm float64
	for i := range smooth {
		sm = math.Max(sm, math.Abs(smooth[i]))
		nm = math.Max(nm, math.Abs(noisy[i]))
	}
	for i := range noisy {
		noisy[i] *= sm / nm
	}
	es, err := z.Encode(smooth)
	if err != nil {
		t.Fatal(err)
	}
	en, err := z.Encode(noisy)
	if err != nil {
		t.Fatal(err)
	}
	if len(es) >= len(en) {
		t.Fatalf("smooth encoded to %d bytes, noisy to %d; expected smooth smaller", len(es), len(en))
	}
}

func TestZFPCompressionImprovesWithTolerance(t *testing.T) {
	in := smoothSignal(4096, 8)
	var prev int = math.MaxInt
	for _, tol := range []float64{1e-12, 1e-8, 1e-4, 1e-1} {
		z, err := NewZFP(tol)
		if err != nil {
			t.Fatal(err)
		}
		enc, err := z.Encode(in)
		if err != nil {
			t.Fatal(err)
		}
		if len(enc) > prev {
			t.Fatalf("tol=%g encoded to %d bytes, larger than tighter tolerance (%d)", tol, len(enc), prev)
		}
		prev = len(enc)
	}
	// And the loosest tolerance must actually beat raw storage.
	if prev >= 8*len(in) {
		t.Fatalf("loosest tolerance size %d no better than raw %d", prev, 8*len(in))
	}
}

func TestSZBeatsRawOnSmoothData(t *testing.T) {
	sz, err := NewSZ(1e-6)
	if err != nil {
		t.Fatal(err)
	}
	in := smoothSignal(4096, 9)
	enc, err := sz.Encode(in)
	if err != nil {
		t.Fatal(err)
	}
	if len(enc) >= 8*len(in)/2 {
		t.Fatalf("sz encoded %d floats to %d bytes; expected > 2x reduction on smooth data", len(in), len(enc))
	}
}

func TestNewRegistry(t *testing.T) {
	for _, name := range []string{"zfp", "sz", "fpc", "flate", "raw"} {
		c, err := New(name, 1e-3)
		if err != nil {
			t.Fatalf("New(%q): %v", name, err)
		}
		if c.Name() != name {
			t.Fatalf("New(%q).Name() = %q", name, c.Name())
		}
	}
	if _, err := New("bogus", 0); err == nil {
		t.Fatal("New accepted unknown codec name")
	}
}

func TestInvalidTolerances(t *testing.T) {
	if _, err := NewZFP(-1); err == nil {
		t.Error("NewZFP accepted negative tolerance")
	}
	if _, err := NewZFP(math.NaN()); err == nil {
		t.Error("NewZFP accepted NaN tolerance")
	}
	if _, err := NewSZ(0); err == nil {
		t.Error("NewSZ accepted zero bound")
	}
	if _, err := NewSZ(math.Inf(1)); err == nil {
		t.Error("NewSZ accepted infinite bound")
	}
}

func TestDecodeCorruptData(t *testing.T) {
	z, _ := NewZFP(1e-6)
	sz, _ := NewSZ(1e-6)
	codecs := []Codec{z, sz, NewFPC(16), NewFlate()}
	for _, c := range codecs {
		if _, err := c.DecodeInto(nil, nil); err == nil {
			t.Errorf("%s: Decode(nil) succeeded", c.Name())
		}
		if _, err := c.DecodeInto(nil, []byte{1, 2, 3}); err == nil {
			t.Errorf("%s: Decode(junk) succeeded", c.Name())
		}
		enc, err := c.Encode(smoothSignal(64, 10))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.DecodeInto(nil, enc[:len(enc)/2]); err == nil {
			t.Errorf("%s: Decode(truncated) succeeded", c.Name())
		}
	}
}

func TestFPCTableLogClamping(t *testing.T) {
	for _, lg := range []uint{0, 4, 16, 24, 99} {
		c := NewFPC(lg)
		in := smoothSignal(100, 11)
		enc, err := c.Encode(in)
		if err != nil {
			t.Fatalf("tableLog=%d: %v", lg, err)
		}
		got, err := c.DecodeInto(nil, enc)
		if err != nil {
			t.Fatalf("tableLog=%d: %v", lg, err)
		}
		if maxAbsErr(in, got) != 0 {
			t.Fatalf("tableLog=%d: not lossless", lg)
		}
	}
}

func TestNegabinaryRoundTrip(t *testing.T) {
	cases := []int64{0, 1, -1, 2, -2, 100, -100, 1 << 54, -(1 << 54), math.MaxInt32, math.MinInt32}
	for _, x := range cases {
		if got := fromNegabinary(toNegabinary(x)); got != x {
			t.Fatalf("negabinary round trip %d -> %d", x, got)
		}
	}
	// Small magnitudes must map to small codes (that is why truncating
	// low bit planes is safe).
	if toNegabinary(0) != 0 {
		t.Fatal("toNegabinary(0) != 0")
	}
	if toNegabinary(1) != 1 {
		t.Fatalf("toNegabinary(1) = %d", toNegabinary(1))
	}
}

func TestBitIORoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	type op struct {
		v uint64
		n uint
	}
	var ops []op
	w := &bitWriter{}
	for i := 0; i < 2000; i++ {
		n := uint(1 + rng.Intn(64))
		v := rng.Uint64()
		if n < 64 {
			v &= (1 << n) - 1
		}
		ops = append(ops, op{v, n})
		w.writeBits(v, n)
	}
	r := newBitReader(w.bytes())
	for i, o := range ops {
		got, err := r.readBits(o.n)
		if err != nil {
			t.Fatalf("op %d: %v", i, err)
		}
		if got != o.v {
			t.Fatalf("op %d: read %x, want %x (n=%d)", i, got, o.v, o.n)
		}
	}
}

func TestBitReaderUnderflow(t *testing.T) {
	r := newBitReader([]byte{0xff})
	if _, err := r.readBits(8); err != nil {
		t.Fatal(err)
	}
	if _, err := r.readBit(); err == nil {
		t.Fatal("readBit past end succeeded")
	}
}

func BenchmarkZFPEncode(b *testing.B) {
	z, _ := NewZFP(1e-6)
	in := smoothSignal(1<<16, 20)
	b.SetBytes(int64(8 * len(in)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := z.Encode(in); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkZFPDecode(b *testing.B) {
	z, _ := NewZFP(1e-6)
	in := smoothSignal(1<<16, 21)
	enc, _ := z.Encode(in)
	b.SetBytes(int64(8 * len(in)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := z.DecodeInto(nil, enc); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSZEncode(b *testing.B) {
	sz, _ := NewSZ(1e-6)
	in := smoothSignal(1<<16, 22)
	b.SetBytes(int64(8 * len(in)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sz.Encode(in); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFPCEncode(b *testing.B) {
	c := NewFPC(16)
	in := smoothSignal(1<<16, 23)
	b.SetBytes(int64(8 * len(in)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Encode(in); err != nil {
			b.Fatal(err)
		}
	}
}

// InflateInto is the exact-length inflate decoders with a checked size use:
// the right size round-trips, and a stream that is short, long, truncated or
// followed by anything is an error, never a partial fill.
func TestInflateIntoIsExact(t *testing.T) {
	src := bytes.Repeat([]byte("canopus geometry plane "), 200)
	z, err := DeflateAppend([]byte("prefix"), src)
	if err != nil {
		t.Fatal(err)
	}
	if string(z[:6]) != "prefix" {
		t.Fatal("DeflateAppend clobbered dst")
	}
	z = z[6:]
	dst := make([]byte, len(src))
	if err := InflateInto(dst, z); err != nil || !bytes.Equal(dst, src) {
		t.Fatalf("exact inflate: %v", err)
	}
	if got, err := InflateAppend(nil, z); err != nil || !bytes.Equal(got, src) {
		t.Fatalf("InflateAppend: %v", err)
	}
	for name, tc := range map[string]struct {
		n int
		z []byte
	}{
		"stream runs long":  {len(src) - 1, z},
		"stream ends early": {len(src) + 1, z},
		"truncated stream":  {len(src), z[:len(z)/2]},
		"trailing byte":     {len(src), append(append([]byte(nil), z...), 0)},
		"empty stream":      {0, nil},
	} {
		if err := InflateInto(make([]byte, tc.n), tc.z); err == nil {
			t.Errorf("%s: no error", name)
		}
	}
	empty, err := DeflateAppend(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := InflateInto(nil, empty); err != nil {
		t.Errorf("empty plane: %v", err)
	}
}
