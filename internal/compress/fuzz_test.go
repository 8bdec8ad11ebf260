package compress

import (
	"math"
	"testing"
)

// Decoder robustness: arbitrary bytes must never panic or hang a decoder —
// Canopus reads containers back from storage tiers that other tools may
// have produced or truncated. These fuzz targets run their seed corpora
// under plain `go test` and can be expanded with `go test -fuzz`.

func seedCorpus(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x43, 0x5a, 0x46, 0x31}) // zfp magic
	f.Add([]byte{0x43, 0x53, 0x5a, 0x31}) // sz magic
	f.Add([]byte{0x46, 0x50, 0x43, 0x31}) // fpc magic
	f.Add([]byte{0x43, 0x4c, 0x46, 0x31}) // flate magic
	f.Add(make([]byte, 64))
	z, _ := NewZFP(1e-3)
	enc, _ := z.Encode([]float64{1, 2, 3, 4, 5})
	f.Add(enc)
	f.Add(enc[:len(enc)-3])
	sz, _ := NewSZ(1e-3)
	enc2, _ := sz.Encode([]float64{1, 2, 3, 4, 5})
	f.Add(enc2)
	fp := NewFPC(8)
	enc3, _ := fp.Encode([]float64{1, 2, 3})
	f.Add(enc3)
}

func FuzzZFPDecode(f *testing.F) {
	seedCorpus(f)
	z, err := NewZFP(1e-3)
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		vals, err := z.DecodeInto(nil, data)
		if err == nil {
			// A successful decode must produce finite-sized output
			// with plausible magnitudes for re-encoding.
			if len(vals) > len(data)*64+64 {
				t.Fatalf("decoded %d values from %d bytes", len(vals), len(data))
			}
		}
	})
}

func FuzzSZDecode(f *testing.F) {
	seedCorpus(f)
	sz, err := NewSZ(1e-3)
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		sz.DecodeInto(nil, data) //nolint:errcheck // must not panic
	})
}

func FuzzFPCDecode(f *testing.F) {
	seedCorpus(f)
	c := NewFPC(8)
	f.Fuzz(func(t *testing.T, data []byte) {
		c.DecodeInto(nil, data) //nolint:errcheck // must not panic
	})
}

func FuzzFlateDecode(f *testing.F) {
	seedCorpus(f)
	c := NewFlate()
	f.Fuzz(func(t *testing.T, data []byte) {
		c.DecodeInto(nil, data) //nolint:errcheck // must not panic
	})
}

// FuzzZFPRoundTrip checks the error bound holds for arbitrary (finite)
// float inputs reconstructed from raw bytes.
func FuzzZFPRoundTrip(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8})
	f.Add(make([]byte, 40))
	f.Fuzz(func(t *testing.T, raw []byte) {
		n := len(raw) / 8
		if n == 0 {
			return
		}
		vals := make([]float64, n)
		for i := 0; i < n; i++ {
			var u uint64
			for j := 0; j < 8; j++ {
				u = u<<8 | uint64(raw[8*i+j])
			}
			v := math.Float64frombits(u)
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return
			}
			// Keep magnitudes in a range where the tolerance is
			// meaningful.
			if math.Abs(v) > 1e12 {
				return
			}
			vals[i] = v
		}
		const tol = 1e-3
		z, err := NewZFP(tol)
		if err != nil {
			t.Fatal(err)
		}
		enc, err := z.Encode(vals)
		if err != nil {
			t.Fatal(err)
		}
		got, err := z.DecodeInto(nil, enc)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(vals) {
			t.Fatalf("decoded %d, want %d", len(got), len(vals))
		}
		for i := range vals {
			if math.Abs(got[i]-vals[i]) > tol {
				t.Fatalf("sample %d error %g exceeds %g", i, math.Abs(got[i]-vals[i]), tol)
			}
		}
	})
}
