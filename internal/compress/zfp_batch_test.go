package compress

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"testing"
)

// The batch decoders (zfp_batch.go) must be observationally identical to the
// retained scalar decoders on EVERY input — valid streams, truncated
// streams, and arbitrary corruption — because the batch path falls back to
// the scalar path mid-stream and the two must agree on where each block
// starts. These targets enforce that parity, and the golden test pins the
// encoder output bytes so decode-side restructuring can never drift the
// on-disk format.

func batchSeedCorpus(f *testing.F, tols []float64) {
	f.Add([]byte{})
	f.Add(make([]byte, 64))
	for _, tol := range tols {
		z, _ := NewZFP(tol)
		for _, n := range []int{1, 4, 5, 64, 1000} {
			enc, _ := z.Encode(smoothSignal(n, int64(n)))
			f.Add(enc)
			if len(enc) > 3 {
				f.Add(enc[:len(enc)-3]) // truncated tail
			}
			if len(enc) > 20 {
				mid := append([]byte(nil), enc...)
				mid[len(mid)/2] ^= 0xff // corrupt payload
				f.Add(mid)
			}
		}
	}
}

// FuzzZFPBatchVsScalar checks the 1D batch decoder against the scalar
// reference: identical output floats (bitwise) when both succeed, and
// rejection parity — neither may accept an input the other rejects.
func FuzzZFPBatchVsScalar(f *testing.F) {
	batchSeedCorpus(f, []float64{0, 1e-3, 1e-6})
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, tol := range []float64{0, 1e-3} {
			z, err := NewZFP(tol)
			if err != nil {
				t.Fatal(err)
			}
			batch, bErr := z.DecodeInto(nil, data)
			scalar, sErr := z.decodeIntoScalar(nil, data)
			if (bErr == nil) != (sErr == nil) {
				t.Fatalf("tol=%g rejection mismatch: batch err=%v scalar err=%v", tol, bErr, sErr)
			}
			if bErr != nil {
				continue
			}
			if len(batch) != len(scalar) {
				t.Fatalf("tol=%g length mismatch: batch %d scalar %d", tol, len(batch), len(scalar))
			}
			for i := range batch {
				if math.Float64bits(batch[i]) != math.Float64bits(scalar[i]) {
					t.Fatalf("tol=%g value %d mismatch: batch %v scalar %v", tol, i, batch[i], scalar[i])
				}
			}
		}
	})
}

func batch2DSeedCorpus(f *testing.F, tols []float64) {
	f.Add([]byte{})
	f.Add(make([]byte, 64))
	for _, tol := range tols {
		z, _ := NewZFP2D(tol)
		for _, dim := range [][2]int{{1, 1}, {4, 4}, {5, 3}, {37, 41}} {
			nx, ny := dim[0], dim[1]
			enc, _ := z.Encode(smoothSignal(nx*ny, int64(nx*100+ny)), nx, ny)
			f.Add(enc)
			if len(enc) > 3 {
				f.Add(enc[:len(enc)-3])
			}
			if len(enc) > 20 {
				mid := append([]byte(nil), enc...)
				mid[len(mid)/2] ^= 0xff
				f.Add(mid)
			}
		}
	}
}

// FuzzZFP2DBatchVsScalar is the 2D variant of FuzzZFPBatchVsScalar.
func FuzzZFP2DBatchVsScalar(f *testing.F) {
	batch2DSeedCorpus(f, []float64{0, 1e-3, 1e-6})
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, tol := range []float64{0, 1e-3} {
			z, err := NewZFP2D(tol)
			if err != nil {
				t.Fatal(err)
			}
			batch, bnx, bny, bErr := z.DecodeInto(nil, data)
			scalar, snx, sny, sErr := z.decodeScalar(data)
			if (bErr == nil) != (sErr == nil) {
				t.Fatalf("tol=%g rejection mismatch: batch err=%v scalar err=%v", tol, bErr, sErr)
			}
			if bErr != nil {
				continue
			}
			if bnx != snx || bny != sny || len(batch) != len(scalar) {
				t.Fatalf("tol=%g shape mismatch: batch %dx%d/%d scalar %dx%d/%d",
					tol, bnx, bny, len(batch), snx, sny, len(scalar))
			}
			for i := range batch {
				if math.Float64bits(batch[i]) != math.Float64bits(scalar[i]) {
					t.Fatalf("tol=%g value %d mismatch: batch %v scalar %v", tol, i, batch[i], scalar[i])
				}
			}
		}
	})
}

// zfpEncodeShape is one named 1D encoder input.
type zfpEncodeShape struct {
	name string
	vals []float64
}

// zfpEncodeShapes are the 1D block shapes whose encoded bytes
// TestZFPEncodedBytesGolden pins beyond the smooth signal: every branch of
// the block encoder, at the edges of the block grid and of the plane range.
func zfpEncodeShapes() []zfpEncodeShape {
	// Blocks that are all zero, interleaved with smooth ones.
	zeros := smoothSignal(64, 41)
	for b := 0; b < len(zeros); b += 12 {
		copy(zeros[b:b+4], []float64{0, 0, 0, 0})
	}
	// Smooth blocks of magnitude ~1 next to blocks of magnitude ~1e-9 that a
	// tolerance of 1e-3 (or 1e-6) truncates to zero blocks.
	truncated := smoothSignal(64, 42)
	for b := 4; b < len(truncated); b += 8 {
		for j := b; j < b+4; j++ {
			truncated[j] *= 1e-9
		}
	}
	// Full-scale blocks: every coefficient reaches the top of the
	// fixed-point range, so maxPlane is the largest a finite block can have
	// (55; |c| <= 2^54) and tol = 0 codes every plane down to 0.
	fullscale := make([]float64, 32)
	for i := range fullscale {
		v := math.Nextafter(1, 0)
		if (i/4)%2 == 1 && i%2 == 1 || (i/4)%3 == 2 {
			v = -v
		}
		fullscale[i] = v * math.Ldexp(1, (i/4)*100-300)
	}
	alternating := make([]float64, 37)
	for i := range alternating {
		alternating[i] = (1 + 0.01*float64(i)) * float64(1-2*(i%2))
	}
	// Magnitudes spanning 2^-40 .. 2^40 inside and across blocks.
	span := make([]float64, 83)
	for i := range span {
		v := math.Ldexp(1+0.3*math.Sin(float64(i)), (i*37)%81-40)
		if i%3 == 1 {
			v = -v
		}
		span[i] = v
	}
	// Blocks whose AC coefficients become significant at staggered planes,
	// far below the DC coefficient: the significance prefix stays short for
	// many planes before every coefficient is significant.
	staggered := make([]float64, 4*24)
	h := [3][4]float64{{1, 1, -1, -1}, {1, -1, -1, 1}, {1, -1, 1, -1}}
	for b := 0; b < 24; b++ {
		a1 := math.Ldexp(1, -(4 + b%20))
		a2 := math.Ldexp(1, -(10 + b%23))
		a3 := math.Ldexp(1, -(20 + b%17))
		for j := 0; j < 4; j++ {
			staggered[4*b+j] = 1.5 + a1*h[0][j] + a2*h[1][j] + a3*h[2][j]
		}
	}
	return []zfpEncodeShape{
		{"tail1", smoothSignal(13, 31)},
		{"tail2", smoothSignal(14, 32)},
		{"tail3", smoothSignal(15, 33)},
		{"zeros", zeros},
		{"truncated", truncated},
		{"fullscale", fullscale},
		{"alternating", alternating},
		{"span40", span},
		{"staggered", staggered},
	}
}

// TestZFPEncodedBytesGolden pins the exact encoder output bytes for fixed
// inputs across tolerances. The batch-decode work is decode-side only: any
// change to these hashes means the on-disk format moved and every container
// written by an earlier build would re-read differently. The 1d-<shape>
// rows pin zfpEncodeShapes, recorded from the scalar block encoder.
func TestZFPEncodedBytesGolden(t *testing.T) {
	vals1d := smoothSignal(4099, 7)
	vals2d := smoothSignal(37*41, 9)
	inputs := map[string][]float64{"1d": vals1d}
	for _, s := range zfpEncodeShapes() {
		inputs["1d-"+s.name] = s.vals
	}
	goldens := []struct {
		tol  float64
		dim  string
		n    int
		hash string
	}{
		{0, "1d", 28595, "c4c268788d25e4a4b97fd4c4fe54684985f43622b5e1b9280e7b8627ab8d981c"},
		{0, "2d", 11393, "a73d7a73ba3301a7d36afe0757dd201319ece94e6094ccccee3aeaef2b7a3dfa"},
		{0.001, "1d", 9400, "86fca41b5028a522c28e6680ca963ab8a35649319d27468190ae12b0cbb9f8f0"},
		{0.001, "2d", 3457, "bfe896f4b485b7c4e3014a27eeef0a455ac93556ec422afb8fdd31b559d9c5ea"},
		{1e-06, "1d", 14526, "b8595c5c1882932380339d7bde0d06fd800b3ec8743754c61e8ff14efeefcf3b"},
		{1e-06, "2d", 5487, "424760954d9079b48b6386e57b72a6fac1d50b217f2fabf516f8c9719cd60b17"},
		{0, "1d-tail1", 118, "3857b21b7d956be518ccf09d41fdeaca6ce9e51994e9671fc2f723ccbf8bfd5c"},
		{0.001, "1d-tail1", 53, "1486b6806be90750badee1011d445542366a76460838a857c4d92aca36561648"},
		{1e-06, "1d-tail1", 70, "7243796762f5092a063b5ef133732b8ed0417d4eed0d5ec813ab5642d4eff97a"},
		{0, "1d-tail2", 131, "404745b8e4cac792276daaaa35a17a652b01220afb50568e8adc04197e1ff757"},
		{0.001, "1d-tail2", 58, "38454b3675e146a32e8c9b92e940221f162cb6788036670495c880a2cf926828"},
		{1e-06, "1d-tail2", 78, "d48d77563622b85a7508fbb8bf1c0fc3e7ebc1483e98fee8f8c56b737d7700ba"},
		{0, "1d-tail3", 132, "2ae5e4f6080ef3abb86f4415ead27bbfff1aa2c72dad81ff3ad8a3c5c070edd6"},
		{0.001, "1d-tail3", 57, "b9deb43d92cf773f1423e8434f3ffb5c7d7870569af56699bb12e368dcb1562c"},
		{1e-06, "1d-tail3", 77, "8793d949461e81f1c2870b42001da17345d4833fe44a03c93b69c583f9235736"},
		{0, "1d-zeros", 307, "a0402cdb98247c09d0f1b0c9ff6cf704e3891b4106fb454270ea5be5bf7ee646"},
		{0.001, "1d-zeros", 124, "224abe4e8fc61a151c92356fd3e01d30f07d319e390c39c35a14b2dbe1c05719"},
		{1e-06, "1d-zeros", 174, "6b2b42ac6285db5fd8ccb9a662f2d5efec8bcf985b83efaf1a65388b40958cbe"},
		{0, "1d-truncated", 486, "e9f0865a96a4a92d631a4034c3c74f12994acf5d10389eb88ec83ea0598a9e91"},
		{0.001, "1d-truncated", 98, "b51346125064fd2eaae145f32aa987d9308af24a60c3888dd370b5c88c88e0da"},
		{1e-06, "1d-truncated", 138, "c20c50f6cac4cf50ec6b8322f68ce83bc3da0aa4ec71f72a9d24561b25269f8c"},
		{0, "1d-fullscale", 185, "960f7eece352f7c8f1058a786396a4c4d27637850b0f9da0564b5acf586e9295"},
		{0.001, "1d-fullscale", 103, "f9c4f1954e2631a9d2695758ade1683e5414e9c36320f89ab2d85c0e38ebbcc4"},
		{1e-06, "1d-fullscale", 108, "697ca520fe4b1de5aaef883a249db99f722fbb48253797a99906337a824b89ea"},
		{0, "1d-alternating", 300, "3f5df84b5cb73681d45376832d96b790b9c768aa82b6b9e9601ae5315bce6df6"},
		{0.001, "1d-alternating", 114, "3b7f7b4ef959b64d100843f22ced46e4f6e8c4362b0c8fdf2a801ab7a92d9eff"},
		{1e-06, "1d-alternating", 162, "e8d83d29cccd06dc3fec0f7dfb07c906b9b2efda59979a69028c695f739ab202"},
		{0, "1d-span40", 630, "6ad2bc714197417b0c777db1bdfac844071267f0c62ec7aca7c39df8a0d7b878"},
		{0.001, "1d-span40", 481, "58fd73ee76ba76c8dc0f25893a6750a381252b240a60a4203db03c6973b22675"},
		{1e-06, "1d-span40", 557, "24ebf222ac6cb0925e82661357f4270cc4ccf16bce559d6f7043400a3eabe6b5"},
		{0, "1d-staggered", 646, "903c5fd3e25f490d2723bb5fc8814fef515f1c9df2dbefbb004d76728df5e677"},
		{0.001, "1d-staggered", 189, "562f55a2e5f86935c84dd41964f92590ed85f14307b5b04e7478452098a15ca4"},
		{1e-06, "1d-staggered", 296, "3216bef9277ff013ecb4f770414f35488ab5342d7930da562532988d29f0d250"},
	}
	for _, g := range goldens {
		t.Run(fmt.Sprintf("%s/tol=%g", g.dim, g.tol), func(t *testing.T) {
			var enc []byte
			var err error
			if g.dim != "2d" {
				z, zerr := NewZFP(g.tol)
				if zerr != nil {
					t.Fatal(zerr)
				}
				enc, err = z.Encode(inputs[g.dim])
			} else {
				z, zerr := NewZFP2D(g.tol)
				if zerr != nil {
					t.Fatal(zerr)
				}
				enc, err = z.Encode(vals2d, 37, 41)
			}
			if err != nil {
				t.Fatal(err)
			}
			if len(enc) != g.n {
				t.Errorf("encoded length %d, want %d", len(enc), g.n)
			}
			sum := sha256.Sum256(enc)
			if got := hex.EncodeToString(sum[:]); got != g.hash {
				t.Errorf("encoded bytes changed: sha256 %s, want %s", got, g.hash)
			}
		})
	}
}

// zfpBound is the error the zfp coders promise for a sample of a block whose
// largest magnitude is amax: the tolerance, floored by fixed-point
// quantization (about 2^-50 of the block's magnitude, see NewZFP) and by the
// half-unit rounding of a subnormal result.
func zfpBound(tol, amax float64) float64 {
	return max(tol, amax*0x1p-48) + 0x1p-1074
}

// checkBlockBound fails t if any decoded sample of a 4-value block of in
// misses zfpBound.
func checkBlockBound(t *testing.T, tol float64, in, got []float64) {
	t.Helper()
	if len(got) != len(in) {
		t.Fatalf("decoded %d values, want %d", len(got), len(in))
	}
	for b := 0; b < len(in); b += 4 {
		blk := in[b:min(b+4, len(in))]
		amax := 0.0
		for _, v := range blk {
			amax = max(amax, math.Abs(v))
		}
		for j, v := range blk {
			if err := math.Abs(got[b+j] - v); !(err <= zfpBound(tol, amax)) {
				t.Fatalf("tol=%g sample %d: decoded %g for %g, error %g exceeds %g",
					tol, b+j, got[b+j], v, err, zfpBound(tol, amax))
			}
		}
	}
}

func floatBytes(vals []float64) []byte {
	out := make([]byte, 0, 8*len(vals))
	for _, v := range vals {
		out = binary.LittleEndian.AppendUint64(out, math.Float64bits(v))
	}
	return out
}

// FuzzZFPBatchEncodeVsScalar checks the batch encoder against the scalar
// reference on arbitrary finite inputs, lengths and tolerances: the stream
// bytes must be identical, and the decoded values must meet the bound. The
// raw bytes are read as little-endian float64s; non-finite patterns are
// made finite by clearing an exponent bit, so every exponent from
// subnormal to 2^1023 is reachable.
func FuzzZFPBatchEncodeVsScalar(f *testing.F) {
	for _, tol := range []float64{0, 1e-3, 1e-6} {
		f.Add(floatBytes(smoothSignal(4099, 7)), tol)
		for _, s := range zfpEncodeShapes() {
			f.Add(floatBytes(s.vals), tol)
		}
	}
	f.Fuzz(func(t *testing.T, raw []byte, tol float64) {
		if math.IsNaN(tol) || math.IsInf(tol, 0) {
			tol = 0
		}
		tol = math.Abs(tol)
		vals := make([]float64, len(raw)/8)
		for i := range vals {
			u := binary.LittleEndian.Uint64(raw[8*i:])
			if v := math.Float64frombits(u); math.IsNaN(v) || math.IsInf(v, 0) {
				u &^= 1 << 62
			}
			vals[i] = math.Float64frombits(u)
		}
		z, err := NewZFP(tol)
		if err != nil {
			t.Fatal(err)
		}
		batch, err := z.Encode(vals)
		if err != nil {
			t.Fatal(err)
		}
		scalar, err := z.encodeScalar(vals)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(batch, scalar) {
			at := 0
			for at < min(len(batch), len(scalar)) && batch[at] == scalar[at] {
				at++
			}
			t.Fatalf("tol=%g, %d values: batch stream (%d bytes) differs from scalar (%d bytes) at byte %d",
				tol, len(vals), len(batch), len(scalar), at)
		}
		got, err := z.DecodeInto(nil, batch)
		if err != nil {
			t.Fatal(err)
		}
		checkBlockBound(t, tol, vals, got)
	})
}

// TestZFPTinyMagnitudesWithinBound covers blocks whose largest magnitude is
// below 2^-971, where the scale 2^(zfpQ-e) overflows float64 and, below
// 2^-1020, the inverse scale underflows: both coders must still reconstruct
// them within the bound instead of returning zeros.
func TestZFPTinyMagnitudesWithinBound(t *testing.T) {
	in := []float64{1e-300, -2e-300, 0, 3e-310, 5e-324, -7e-315, 2.5e-308, 1e-305, 4e-320}
	for _, tol := range []float64{0, 1e-320} {
		t.Run(fmt.Sprintf("1d/tol=%g", tol), func(t *testing.T) {
			z, err := NewZFP(tol)
			if err != nil {
				t.Fatal(err)
			}
			enc, err := z.Encode(in)
			if err != nil {
				t.Fatal(err)
			}
			got, err := z.DecodeInto(nil, enc)
			if err != nil {
				t.Fatal(err)
			}
			checkBlockBound(t, tol, in, got)
			scalar, err := z.decodeIntoScalar(nil, enc)
			if err != nil {
				t.Fatal(err)
			}
			checkBlockBound(t, tol, in, scalar)
		})
		t.Run(fmt.Sprintf("2d/tol=%g", tol), func(t *testing.T) {
			const nx, ny = 3, 3
			z, err := NewZFP2D(tol)
			if err != nil {
				t.Fatal(err)
			}
			enc, err := z.Encode(in, nx, ny)
			if err != nil {
				t.Fatal(err)
			}
			batch, _, _, err := z.Decode(enc)
			if err != nil {
				t.Fatal(err)
			}
			scalar, _, _, err := z.decodeScalar(enc)
			if err != nil {
				t.Fatal(err)
			}
			// The whole 3x3 grid is one 4x4 block.
			amax := 2e-300
			for i, v := range in {
				for _, got := range []float64{batch[i], scalar[i]} {
					if err := math.Abs(got - v); !(err <= zfpBound(tol, amax)) {
						t.Fatalf("sample %d: decoded %g for %g, error %g exceeds %g", i, got, v, err, zfpBound(tol, amax))
					}
				}
			}
		})
	}
}

// TestZFPEncodeAllocs guards the pooled-bitWriter encode diet: the seed
// encoder allocated ~1021 times per chunked op; pooling holds the whole
// encode to a small constant.
func TestZFPEncodeAllocs(t *testing.T) {
	z, err := NewZFP(1e-3)
	if err != nil {
		t.Fatal(err)
	}
	vals := smoothSignal(4096, 3)
	if _, err := z.Encode(vals); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := z.Encode(vals); err != nil {
			t.Fatal(err)
		}
	})
	// One output buffer plus pool slack; the point is it no longer scales
	// with block count (4096 values = 1024 blocks).
	if allocs > 16 {
		t.Fatalf("Encode allocates %v times per op, want <= 16", allocs)
	}
}

// TestZFPDecodeAllocs guards the batch decoder's steady state: decoding into
// a reused buffer must not allocate at all.
func TestZFPDecodeAllocs(t *testing.T) {
	z, err := NewZFP(1e-3)
	if err != nil {
		t.Fatal(err)
	}
	enc, err := z.Encode(smoothSignal(4096, 3))
	if err != nil {
		t.Fatal(err)
	}
	dst := make([]float64, 4096)
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := z.DecodeInto(dst, enc); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("DecodeInto allocates %v times per op, want 0", allocs)
	}
}
