package plan

import (
	"math"
	"testing"
)

func prods(bounds ...float64) []Product {
	ps := make([]Product, len(bounds))
	for i := range bounds {
		ps[i] = Product{Level: i, Bound: bounds[i]}
	}
	return ps
}

func TestForLevelProgressive(t *testing.T) {
	p, err := New(Progressive, prods(1, 2, 4))
	if err != nil {
		t.Fatal(err)
	}
	pl, err := p.ForLevel(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(pl.Steps) != 3 {
		t.Fatalf("steps = %d, want 3", len(pl.Steps))
	}
	for i, want := range []int{2, 1, 0} {
		if pl.Steps[i].Level != want {
			t.Fatalf("step %d level = %d, want %d (coarse-to-fine)", i, pl.Steps[i].Level, want)
		}
	}
	if pl.Unreachable {
		t.Fatalf("flags = %+v", pl)
	}

	// A base-only plan touches exactly one product.
	pl, err = p.ForLevel(2)
	if err != nil {
		t.Fatal(err)
	}
	if len(pl.Steps) != 1 || pl.Steps[0].Level != 2 {
		t.Fatalf("base plan = %+v", pl)
	}

	if _, err := p.ForLevel(3); err == nil {
		t.Fatal("out-of-range level planned")
	}
	if _, err := p.ForLevel(-1); err == nil {
		t.Fatal("negative level planned")
	}
}

func TestForLevelDirect(t *testing.T) {
	p, err := New(Direct, prods(1, 2, 4))
	if err != nil {
		t.Fatal(err)
	}
	pl, err := p.ForLevel(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(pl.Steps) != 1 || pl.Steps[0].Level != 0 {
		t.Fatalf("direct steps = %+v, want single level-0 step", pl.Steps)
	}
	if len(pl.Fallbacks) != 2 || pl.Fallbacks[0] != 1 || pl.Fallbacks[1] != 2 {
		t.Fatalf("fallbacks = %v, want [1 2] (nearest coarser first)", pl.Fallbacks)
	}
}

func TestForToleranceSelectsCoarsestSatisfyingLevel(t *testing.T) {
	p, err := New(Progressive, prods(1, 2, 4))
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		eps    float64
		target int
		steps  int
	}{
		{5, 2, 1},   // base alone meets eps
		{4, 2, 1},   // bound equal to eps counts as met
		{3, 1, 2},   // one refinement needed
		{1.5, 0, 3}, // full accuracy needed
	}
	for _, c := range cases {
		pl, err := p.ForTolerance(c.eps)
		if err != nil {
			t.Fatal(err)
		}
		if pl.Target != c.target || len(pl.Steps) != c.steps || pl.Unreachable {
			t.Fatalf("eps %g: target %d steps %d unreachable %v, want target %d steps %d",
				c.eps, pl.Target, len(pl.Steps), pl.Unreachable, c.target, c.steps)
		}
	}
}

func TestForToleranceUnreachable(t *testing.T) {
	p, err := New(Progressive, prods(1, 2, 4))
	if err != nil {
		t.Fatal(err)
	}
	pl, err := p.ForTolerance(0.5)
	if err != nil {
		t.Fatal(err)
	}
	if !pl.Unreachable || pl.Target != 0 || len(pl.Steps) != 3 {
		t.Fatalf("unreachable plan = %+v, want finest-level plan flagged unreachable", pl)
	}
	if _, err := p.ForTolerance(0); err == nil {
		t.Fatal("eps 0 planned")
	}
	if _, err := p.ForTolerance(-1); err == nil {
		t.Fatal("negative eps planned")
	}
	if _, err := p.ForTolerance(math.NaN()); err == nil {
		t.Fatal("NaN eps planned")
	}
}

func TestForToleranceLegacyFallback(t *testing.T) {
	// One unknown bound poisons the composition: the only safe plan is
	// level-order to the finest level.
	p, err := New(Progressive, prods(1, -1, 4))
	if err != nil {
		t.Fatal(err)
	}
	if p.boundsKnown() {
		t.Fatal("boundsKnown with an unknown level bound")
	}
	pl, err := p.ForTolerance(100)
	if err != nil {
		t.Fatal(err)
	}
	if pl.Target != 0 || len(pl.Steps) != 3 || pl.Unreachable {
		t.Fatalf("legacy plan = %+v, want conservative level-order plan to level 0", pl)
	}
}

func TestForStream(t *testing.T) {
	p, err := New(Direct, prods(1, 2, 4))
	if err != nil {
		t.Fatal(err)
	}
	// Direct-mode streams still walk coarse-to-fine so subscribers get a
	// base immediately.
	pl, err := p.ForStream(1.5)
	if err != nil {
		t.Fatal(err)
	}
	if len(pl.Steps) != 3 || pl.Steps[0].Level != 2 || pl.Target != 0 {
		t.Fatalf("stream plan = %+v, want full coarse-to-fine walk", pl)
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Progressive, nil); err == nil {
		t.Fatal("empty product set accepted")
	}
	if _, err := New(Progressive, []Product{{Level: 1}}); err == nil {
		t.Fatal("mis-indexed product set accepted")
	}
}

func TestComposeBounds(t *testing.T) {
	tol := 1e-3
	maxD := []float64{0.5, 0.2} // level 0<-1, level 1<-2
	prog, err := ComposeBounds(Progressive, 3, tol, maxD)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{3 * tol, 2*tol + 0.5, tol + 0.7}
	for l := range want {
		if math.Abs(prog[l]-want[l]) > 1e-15 {
			t.Fatalf("progressive bound[%d] = %g, want %g", l, prog[l], want[l])
		}
	}
	// Bounds tighten toward finer levels.
	for l := 1; l < len(prog); l++ {
		if prog[l-1] > prog[l] {
			t.Fatalf("bounds not monotone: B(%d)=%g > B(%d)=%g", l-1, prog[l-1], l, prog[l])
		}
	}
	dir, err := ComposeBounds(Direct, 3, tol, maxD)
	if err != nil {
		t.Fatal(err)
	}
	wantDir := []float64{tol, tol + 0.5, tol + 0.7}
	for l := range wantDir {
		if math.Abs(dir[l]-wantDir[l]) > 1e-15 {
			t.Fatalf("direct bound[%d] = %g, want %g", l, dir[l], wantDir[l])
		}
	}
	// Single-level hierarchies: just the codec bound.
	one, err := ComposeBounds(Progressive, 1, tol, nil)
	if err != nil || len(one) != 1 || one[0] != tol {
		t.Fatalf("ComposeBounds(1 level) = %v, %v", one, err)
	}
	if _, err := ComposeBounds(Progressive, 3, tol, []float64{1}); err == nil {
		t.Fatal("mismatched maxDeltas length accepted")
	}
	if _, err := ComposeBounds(Progressive, 0, tol, nil); err == nil {
		t.Fatal("zero levels accepted")
	}
}
