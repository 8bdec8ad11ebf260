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
// rows and the Collapses/Rejected counters. The values were recorded from the
// map-based implementation this package started with; any change to collapse
// order, tie-breaking, vertex placement or restriction weights changes them,
// and with them every stored byte and recorded error bound downstream.
var decimateGolden = map[string]string{
	"plane/edge-length":           "ab14ea2317176c7c4030a99e1f60f37bdb6380b47508cf2f04af4b23bbfa0159",
	"plane/edge-length/track":     "e8fbb782747629c30726a26f6063386df98794d57ebd9b719abafcbe4dd2b2d7",
	"plane/data-weighted":         "1fb0509f7a3155e9074340c3035a993731a8ce9b03a584d5f9b8684b2642cba2",
	"plane/data-weighted/track":   "58d9d4085b203d135dd081455d807b7c5039598759a66c4db2ca1b1898c2df86",
	"plane/hash-order":            "c2264213251cf118659e9cb225dd2218eeae0330bcd05d9aecdec10465194571",
	"plane/hash-order/track":      "f6bdca98f719dcf88f5837b2910cc4f9b5da2031004ea301f8cc2155ffe3d536",
	"plane2x/edge-length":         "659b7d21b436085083164e531a1f2e13f001c057d334cc58d0b04491bbc621d1",
	"plane2x/edge-length/track":   "410a693e6a7a49f9d77364a9853c0916e3fb01c6ef444262401b5d3f822bb8e8",
	"plane2x/data-weighted":       "05b2094058ed63debce75ababf3345281b6d7a4bef00a2357ee90205e65d7d18",
	"plane2x/data-weighted/track": "9ce5538275c1ff7f92c3728f0e2bbe23b0c7a9fc8b09258bc83b8ceedbc5d40d",
	"plane2x/hash-order":          "bb99f75a6db287977cf965cd28f887d9f715e033d36b98132c4529cccb6ca9cd",
	"plane2x/hash-order/track":    "bdba98c31dc545237af0f9fc2d3b146b1982e1d4d31e08612f220b738c5f66ca",
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
