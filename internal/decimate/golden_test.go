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
// collapse order with each coarse level numbered in its input's order (least
// input vertex first, triangles rotated and sorted). Any change to the parts,
// collapse order, tie-breaking, vertex placement, output order or
// restriction weights changes them, and with them every stored byte and
// recorded error bound downstream.
var decimateGolden = map[string]string{
	"plane/edge-length":           "6cc07988af5675e6d15711bc20b87f5017b2294bb57654cb197e39d005e149f7",
	"plane/edge-length/track":     "c02910689dbd050b6a6c5230afab69b947f19ca232f9ab1b97e40f7050679743",
	"plane/data-weighted":         "28b1bf1b5f11c1bbc3929b55ca02d2f3b8094abfe485f0b74cc57baff8041500",
	"plane/data-weighted/track":   "66ce74b371109d58d68862272160e8f742212e6fde7f58c5457fc44f88f02093",
	"plane/hash-order":            "237de4aa30518992a46bd9b8510896063236dc5ad61e40ac3230c9b9df848b3d",
	"plane/hash-order/track":      "b190662b785aac6d95f3e3e6dc36e0f4e62846690f1286748e5c19ac9e2c9546",
	"plane2x/edge-length":         "50819795cb3d68fb4d2efc44e1c865244c7a0f66d4daaf4b25af99d79918b396",
	"plane2x/edge-length/track":   "76d019ddb7790464aba80017f7d38678ac4ab477405b0083f9e213868b6ec340",
	"plane2x/data-weighted":       "1980fd48d676ed069451e9f7fd9ffc05735e1c1c67e9095eba972794b3333347",
	"plane2x/data-weighted/track": "f3f804d010e9aaa7617011d82f5590b45f191fe6ba82d5832e866812ab6af547",
	"plane2x/hash-order":          "cc8e534f85d675bdb2b88e32a900e69606247c561228b9352f6f0383975fa1bb",
	"plane2x/hash-order/track":    "29145bafb67b293bdbc510ce7422334b34e745e5c31e07e91680367d1b668941",
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
