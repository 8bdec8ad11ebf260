package plan

import (
	"encoding/binary"
	"math"
	"testing"
)

// fuzzBounds turns raw bytes into 1 to 64 level bounds, eight bytes of
// float64 bits each (zero-padded), so NaN, ±Inf, negative (unknown) and
// non-monotone bounds all reach the planner.
func fuzzBounds(levels uint8, raw []byte) []float64 {
	bounds := make([]float64, 1+int(levels)%64)
	for l := range bounds {
		var b [8]byte
		if 8*l < len(raw) {
			copy(b[:], raw[8*l:])
		}
		bounds[l] = math.Float64frombits(binary.LittleEndian.Uint64(b[:]))
	}
	return bounds
}

// FuzzPlanner checks the planner's contract on any product set, mode,
// target and eps: ForLevel walks the base down to the target (one step and
// the coarser fallbacks in direct mode), tolerance plans refuse every eps
// that is not > 0, and a tolerance target is the coarsest level whose
// recorded bound meets eps, the finest level flagged Unreachable when none
// does, or the finest level when any bound is unknown.
func FuzzPlanner(f *testing.F) {
	le := func(vs ...float64) []byte {
		var out []byte
		for _, v := range vs {
			out = binary.LittleEndian.AppendUint64(out, math.Float64bits(v))
		}
		return out
	}
	f.Add(uint8(2), le(1, 2, 4), false, 0, 3.0)
	f.Add(uint8(2), le(1, 2, 4), true, 1, 0.5)
	f.Add(uint8(2), le(1, -1, 4), false, 2, 100.0)
	f.Add(uint8(3), le(4, math.NaN(), 1, math.Inf(1)), true, -1, math.Inf(1))
	f.Add(uint8(0), le(math.Inf(-1)), false, 0, 0.0)
	f.Add(uint8(63), []byte{0xff, 0xf0}, true, 64, math.NaN())
	f.Fuzz(func(t *testing.T, levels uint8, raw []byte, direct bool, target int, eps float64) {
		bounds := fuzzBounds(levels, raw)
		n := len(bounds)
		mode := Progressive
		if direct {
			mode = Direct
		}
		p, err := New(mode, prods(bounds...))
		if err != nil {
			t.Fatal(err)
		}
		// checkSteps asserts a plan walks contiguously from the base down
		// to its target, or, when single, is one step at the target with
		// every coarser level as a fallback.
		checkSteps := func(what string, pl *Plan, single bool) {
			if single {
				if len(pl.Steps) != 1 || pl.Steps[0].Level != pl.Target {
					t.Fatalf("%s: direct steps %v, want one at %d", what, pl.Steps, pl.Target)
				}
				if len(pl.Fallbacks) != n-1-pl.Target {
					t.Fatalf("%s: fallbacks %v for target %d of %d", what, pl.Fallbacks, pl.Target, n)
				}
				for i, l := range pl.Fallbacks {
					if l != pl.Target+1+i {
						t.Fatalf("%s: fallbacks %v for target %d", what, pl.Fallbacks, pl.Target)
					}
				}
				return
			}
			if len(pl.Steps) != n-pl.Target || len(pl.Fallbacks) != 0 {
				t.Fatalf("%s: %d steps, fallbacks %v for target %d of %d", what, len(pl.Steps), pl.Fallbacks, pl.Target, n)
			}
			for i, s := range pl.Steps {
				if s.Level != n-1-i {
					t.Fatalf("%s: step %d at level %d, want %d", what, i, s.Level, n-1-i)
				}
			}
		}

		pl, err := p.ForLevel(target)
		if (err != nil) != (target < 0 || target >= n) {
			t.Fatalf("ForLevel(%d) of %d levels: %v", target, n, err)
		}
		if err == nil {
			if pl.Target != target || pl.Tolerance >= 0 || pl.Unreachable {
				t.Fatalf("ForLevel(%d) = %+v", target, pl)
			}
			checkSteps("ForLevel", pl, direct)
		}

		known, met := true, false
		for _, b := range bounds {
			known = known && b >= 0 && !math.IsNaN(b)
			met = met || b <= eps
		}
		for _, c := range []struct {
			what   string
			plan   func(float64) (*Plan, error)
			single bool
		}{
			{"ForTolerance", p.ForTolerance, direct},
			{"ForStream", p.ForStream, false},
		} {
			pl, err := c.plan(eps)
			if (err != nil) != !(eps > 0) {
				t.Fatalf("%s(%g): %v", c.what, eps, err)
			}
			if err != nil {
				continue
			}
			if pl.Tolerance != eps || pl.Target < 0 || pl.Target >= n {
				t.Fatalf("%s(%g) = %+v", c.what, eps, pl)
			}
			checkSteps(c.what, pl, c.single)
			switch {
			case !known:
				if pl.Target != 0 || pl.Unreachable {
					t.Fatalf("%s(%g) with an unknown bound: target %d, unreachable %v", c.what, eps, pl.Target, pl.Unreachable)
				}
			case pl.Unreachable:
				if met || pl.Target != 0 {
					t.Fatalf("%s(%g) unreachable at target %d over bounds %v", c.what, eps, pl.Target, bounds)
				}
			default:
				if !(bounds[pl.Target] <= eps) {
					t.Fatalf("%s(%g): target %d has bound %g", c.what, eps, pl.Target, bounds[pl.Target])
				}
				for l := pl.Target + 1; l < n; l++ {
					if !(bounds[l] > eps) {
						t.Fatalf("%s(%g): coarser level %d already meets it (bound %g)", c.what, eps, l, bounds[l])
					}
				}
			}
		}
	})
}
