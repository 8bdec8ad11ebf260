package decimate_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"

	"repro/internal/decimate"
	"repro/internal/sim"
)

// decimateGolden pins Decimate's complete output. Each hash covers a 3-step
// ratio-2 cascade: per step the coarse vertices, triangles, data, restriction
// rows and the Collapses/Rejected counters. Both planes are large enough to
// be decimated in parts, and the values were recorded from the partitioned
// collapse order; meshes of one part keep the serial order the map-based
// implementation this package started with defined. Any change to the parts,
// collapse order, tie-breaking, vertex placement or restriction weights
// changes them, and with them every stored byte and recorded error bound
// downstream.
var decimateGolden = map[string]string{
	"plane/edge-length":           "c7584b651d7977feae4d72389a59fcfc9449de38f95b8bd630f19282033464a6",
	"plane/edge-length/track":     "f2671e442c05ad8e0a1686a70c422f721f5c2a7e277a65da267cd3275fdf8e5a",
	"plane/data-weighted":         "27ac2f18639154ab2ea0128bb03b76f7b95b59d3611717668140b8c745c5edc4",
	"plane/data-weighted/track":   "0f8e4cecefae2d55a92ae9d22f3f8875d1d34223a1ccc4f47df1113e01236c18",
	"plane/hash-order":            "8c8defb1f860a89e8018aa326fdf19838cdd4b8f78099423bc9cb1c00e95f2cf",
	"plane/hash-order/track":      "f40e306fcc4b27c63fc77e7cb12c2fa63ddaa040c4f9ede9f3c7872db8aca01d",
	"plane2x/edge-length":         "76bca97d91e7b8048c1d0e81f084aea0ffb089725a377e649869bf15603b36ab",
	"plane2x/edge-length/track":   "345822e23ff38694399ce136b7bee0d6d87617a59865f8d7bdd8f0d121ec31d7",
	"plane2x/data-weighted":       "84f5d2dc1257e55d117ef0fe81cb41a97555041425f56fc30bb76796f4fee348",
	"plane2x/data-weighted/track": "e47fa2c715529bc3c8552c40250f4ea5444ba1c81573d6b2dcb3943aba2f930e",
	"plane2x/hash-order":          "2125aeaa34ba999854869396bbe1f52ef0cb9569d39374008ebbfaa20d2a038b",
	"plane2x/hash-order/track":    "b1b9b2f4ac48e24b9176a9da3a26d4923786c33a22a3457b55df4ce056a1875c",
}

func TestDecimateGolden(t *testing.T) {
	datasets := []struct {
		name string
		cfg  sim.XGC1Config
	}{
		{"plane", sim.XGC1Config{}},
		{"plane2x", sim.XGC1Config{Rings: 48, Segments: 800}},
	}
	priorities := []struct {
		name string
		fn   decimate.Priority
	}{
		{"edge-length", decimate.EdgeLength},
		{"data-weighted", decimate.DataWeighted},
		{"hash-order", decimate.HashOrder},
	}
	for _, d := range datasets {
		ds := sim.XGC1(d.cfg).Dataset
		for _, p := range priorities {
			for _, track := range []bool{false, true} {
				name := d.name + "/" + p.name
				if track {
					name += "/track"
				}
				t.Run(name, func(t *testing.T) {
					h := sha256.New()
					put := func(vals ...uint64) {
						var b [8]byte
						for _, v := range vals {
							binary.LittleEndian.PutUint64(b[:], v)
							h.Write(b[:])
						}
					}
					cur, data := ds.Mesh, ds.Data
					for step := 0; step < 3; step++ {
						res, err := decimate.Decimate(cur, data, decimate.TargetForRatio(cur.NumVerts(), 2),
							decimate.Options{Priority: p.fn, TrackRestriction: track})
						if err != nil {
							t.Fatal(err)
						}
						put(uint64(len(res.Coarse.Verts)), uint64(len(res.Coarse.Tris)),
							uint64(res.Collapses), uint64(res.Rejected))
						for _, v := range res.Coarse.Verts {
							put(math.Float64bits(v.X), math.Float64bits(v.Y))
						}
						for _, tri := range res.Coarse.Tris {
							put(uint64(tri[0]), uint64(tri[1]), uint64(tri[2]))
						}
						for _, x := range res.Data {
							put(math.Float64bits(x))
						}
						if (res.Restriction != nil) != track {
							t.Fatalf("step %d: restriction present = %v, want %v", step, res.Restriction != nil, track)
						}
						for _, row := range res.Restriction {
							put(uint64(len(row)))
							for _, w := range row {
								put(uint64(w.Vertex), math.Float64bits(w.W))
							}
						}
						cur, data = res.Coarse, res.Data
					}
					got := hex.EncodeToString(h.Sum(nil))
					if want := decimateGolden[name]; got != want {
						t.Errorf("output hash changed:\n got %s\nwant %s", got, want)
					}
				})
			}
		}
	}
}
