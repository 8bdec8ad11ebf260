package delta

import (
	"context"
	"encoding/binary"
	"math"
	"testing"

	"repro/internal/decimate"
	"repro/internal/mesh"
)

var (
	// oversizedCount claims 40 entries and carries three: a count within
	// ten times the payload, which a per-byte-ratio guard would allocate.
	oversizedCount = append(binary.AppendUvarint(nil, 40), 2, 2, 2)
	// wrappingIndex holds one entry whose index is 2^32+5.
	wrappingIndex = binary.AppendVarint(binary.AppendUvarint(nil, 1), 1<<32+5)
)

// FuzzDecodeMapping hardens the mapping decoder against corrupt tier
// contents: every input either fails or decodes to a mapping that the
// bytes paid for, with non-negative int32 indices, and that re-encodes and
// decodes back to itself exactly.
func FuzzDecodeMapping(f *testing.F) {
	for _, shape := range []struct {
		m     *mesh.Mesh
		ratio float64
	}{
		{mesh.Rect(12, 12, 1, 1), 4},
		{mesh.Disk(8, 32, 1), 2},
	} {
		data := field(shape.m, wave)
		res, err := decimate.Decimate(shape.m, data, decimate.TargetForRatio(shape.m.NumVerts(), shape.ratio), decimate.Options{})
		if err != nil {
			f.Fatal(err)
		}
		mp, err := Build(shape.m, res.Coarse)
		if err != nil {
			f.Fatal(err)
		}
		enc := mp.Encode()
		f.Add(enc)
		f.Add(enc[:len(enc)-1]) // truncated inside the last entry
	}
	f.Add(Mapping{}.Encode())
	f.Add(oversizedCount)
	f.Add(wrappingIndex)
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		mp, n, err := DecodeMapping(data)
		if err != nil {
			return
		}
		if n < 1 || n > len(data) {
			t.Fatalf("consumed %d of %d bytes", n, len(data))
		}
		// One count byte at least, then one byte per entry at least.
		if len(mp) > n-1 {
			t.Fatalf("%d bytes decoded to %d entries", n, len(mp))
		}
		for i, ti := range mp {
			if ti < 0 {
				t.Fatalf("entry %d = %d", i, ti)
			}
		}
		enc := mp.Encode()
		got, m, err := DecodeMapping(append(enc, data...))
		if err != nil {
			t.Fatalf("decode of a fresh encoding: %v", err)
		}
		if m != len(enc) {
			t.Fatalf("consumed %d of a %d-byte encoding", m, len(enc))
		}
		if len(got) != len(mp) {
			t.Fatalf("round trip gave %d entries, want %d", len(got), len(mp))
		}
		for i := range mp {
			if got[i] != mp[i] {
				t.Fatalf("round trip entry %d = %d, want %d", i, got[i], mp[i])
			}
		}
	})
}

// genericMean computes MeanEstimator's formula under another type, so
// ComputeInto, RestoreInto and EstimateVertex route it through the generic path that
// computes (and then ignores) clamped barycentric coordinates.
type genericMean struct{}

func (genericMean) Name() string { return "mean" }

func (genericMean) Estimate(li, lj, lk, _, _, _ float64) float64 { return (li + lj + lk) / 3 }

// fuzzSource hands out bytes, then zeros once the input runs dry.
type fuzzSource []byte

func (s *fuzzSource) next() byte {
	if len(*s) == 0 {
		return 0
	}
	b := (*s)[0]
	*s = (*s)[1:]
	return b
}

var specialFloats = []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1), math.MaxFloat64, math.SmallestNonzeroFloat64}

// float draws a special value, a small coordinate-like value (repeats make
// degenerate triangles likely), or an arbitrary bit pattern (NaN payloads
// included).
func (s *fuzzSource) float() float64 {
	tag := s.next()
	switch tag % 4 {
	case 0:
		return specialFloats[int(tag/4)%len(specialFloats)]
	case 3:
		var bits uint64
		for i := 0; i < 8; i++ {
			bits = bits<<8 | uint64(s.next())
		}
		return math.Float64frombits(bits)
	default:
		return float64(int8(tag)) / 8
	}
}

func (s *fuzzSource) floats(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = s.float()
	}
	return out
}

func (s *fuzzSource) verts(n int) []mesh.Vertex {
	out := make([]mesh.Vertex, n)
	for i := range out {
		out[i] = mesh.Vertex{X: s.float(), Y: s.float()}
	}
	return out
}

// FuzzRestoreMeanVsGeneric pins the mean estimator's corner gather to the
// generic barycentric path bit for bit: ComputeInto, RestoreInto and
// EstimateVertex must agree on arbitrary meshes (degenerate triangles
// included), mappings, and data holding NaN and infinities.
func FuzzRestoreMeanVsGeneric(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{2, 1, 8, 16, 24, 8, 24, 3, 0, 1, 2, 4, 0, 4, 8, 1, 2, 3, 4, 5})
	// Three coincident coarse corners and special values in every slot.
	f.Add([]byte{2, 0, 4, 4, 4, 4, 4, 4, 0, 0, 0, 0, 8, 4, 8, 0, 0, 12, 16, 20, 24, 0, 4, 8})
	f.Fuzz(func(t *testing.T, data []byte) {
		src := fuzzSource(data)
		nc := 1 + int(src.next()%8)
		nt := 1 + int(src.next()%8)
		nf := int(src.next() % 32)
		coarse := &mesh.Mesh{Verts: src.verts(nc), Tris: make([]mesh.Triangle, nt)}
		for i := range coarse.Tris {
			for k := range coarse.Tris[i] {
				coarse.Tris[i][k] = int32(int(src.next()) % nc)
			}
		}
		fine := &mesh.Mesh{Verts: src.verts(nf)}
		mp := make(Mapping, nf)
		for i := range mp {
			mp[i] = int32(int(src.next()) % nt)
		}
		coarseData, fineData, deltas := src.floats(nc), src.floats(nf), src.floats(nf)

		ctx := context.Background()
		same := func(what string, got, want []float64) {
			t.Helper()
			for i := range want {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					t.Fatalf("%s vertex %d: gather %x, generic %x", what, i, math.Float64bits(got[i]), math.Float64bits(want[i]))
				}
			}
		}
		for _, op := range []struct {
			name string
			run  func(Estimator) ([]float64, error)
		}{
			{"ComputeInto", func(est Estimator) ([]float64, error) {
				return ComputeInto(ctx, nil, fine, fineData, coarse, coarseData, mp, est, nil)
			}},
			{"RestoreInto", func(est Estimator) ([]float64, error) {
				return RestoreInto(ctx, nil, fine, coarse, coarseData, mp, deltas, est, nil)
			}},
			{"EstimateVertex", func(est Estimator) ([]float64, error) {
				out := make([]float64, nf)
				for vi := range out {
					out[vi] = EstimateVertex(fine, coarse, coarseData, mp, est, int32(vi))
				}
				return out, nil
			}},
		} {
			got, err := op.run(MeanEstimator{})
			if err != nil {
				t.Fatalf("%s: %v", op.name, err)
			}
			want, err := op.run(genericMean{})
			if err != nil {
				t.Fatalf("%s generic: %v", op.name, err)
			}
			same(op.name, got, want)
		}
	})
}
