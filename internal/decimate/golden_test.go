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
// collapse order with each coarse level in its input's order (vertices by
// least input vertex, triangles by input slot). Any change to the parts,
// collapse order, tie-breaking, vertex placement, output order or
// restriction weights changes them, and with them every stored byte and
// recorded error bound downstream.
var decimateGolden = map[string]string{
	"plane/edge-length":           "4c27a830bdca32b99fdcaadf681191163a80c2e660a8b95ca5633b851b284d86",
	"plane/edge-length/track":     "cb08ba2ae4436050933ae2e18bfac12d13ae7cfed11b7e3cc0fa52b0fc2e8ab9",
	"plane/data-weighted":         "eb90c09d5ee2e1aec01fb2e2d26c8ae3e9ab0a093eb918fc4106d0d630a6e803",
	"plane/data-weighted/track":   "26fc10654ba9777bf05a295127e50a4c981c82710a1278a5d3b505b0df11aa2a",
	"plane/hash-order":            "283c23b20f6b2664cd286ff3c6a1dbb1de79478d5e8ebf18464ae1f1ce838871",
	"plane/hash-order/track":      "9fa79e2f4fe04c404b2239339dac620b883e06d76618bffd7931ff4d0e275b66",
	"plane2x/edge-length":         "40f5d45e7c66eeeae65bc8bdd3950dc063de35c768208857a32f12f08879c868",
	"plane2x/edge-length/track":   "56273b74d3944a03558a025ae61a4d33d554167d0f664798f831d3729fadc47b",
	"plane2x/data-weighted":       "b1b03d22f33937f3cd0824f0a3b7ec81b0999b0d9c33a18aeb42ceb160aa6381",
	"plane2x/data-weighted/track": "1d2260ff36672f8106efc25beeece1201840ea6add669db301fac23ab903dd3f",
	"plane2x/hash-order":          "15197ff7575dc80d1153cb1bd4245979651518f0417b59b9a76657c606b84f06",
	"plane2x/hash-order/track":    "973f3987408cd561f6c31503d68775c3f6b13257b39c2827fcde3892cf91e736",
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
