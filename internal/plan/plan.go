// Package plan is the single retrieval planner behind every Canopus read
// path. It owns the three decisions the read paths used to duplicate:
//
//   - level selection: which stored products a retrieval must fetch, in
//     which order, for a requested accuracy level or error tolerance;
//   - error-bound composition: what absolute error bound a view carries
//     after each product is applied, from the per-level bounds recorded at
//     write time (ComposeBounds is the write-side half of the same rule);
//   - degradation fallback: the order in which coarser levels substitute
//     for a product that cannot be read.
//
// The executors in internal/core walk planner-produced Plans; they contain
// no level-selection logic of their own. Following "A General Framework for
// Progressive Data Compression and Retrieval" (arXiv 2308.11759), the
// tolerance planner picks the cheapest product set whose composed bound
// meets the caller's epsilon and stops there; hierarchies written before
// bounds were recorded fall back to a conservative level-order plan to the
// finest level.
package plan

import (
	"fmt"
	"math"
)

// Mode mirrors the two stored layouts the planner must schedule for.
type Mode int

const (
	// Progressive is Canopus proper: a view at level l needs the base plus
	// every delta from the base down to l, applied coarse-to-fine.
	Progressive Mode = iota
	// Direct is the independently-compressed baseline: a view at level l
	// needs exactly one stored product.
	Direct
)

func (m Mode) String() string {
	if m == Direct {
		return "direct"
	}
	return "progressive"
}

// Tier carries the cost-model parameters of the tier a product lives on.
// The planner does not read it: plans choose levels by recorded bound
// alone.
type Tier struct {
	Name           string
	LatencySeconds float64
	ReadBandwidth  float64 // bytes/second
}

// Product describes one stored accuracy level as the planner sees it.
type Product struct {
	// Level is the accuracy level index (0 = finest).
	Level int
	// Bound is the composed absolute error bound (vs the full-accuracy
	// field, through the zero-fill prolongation of DESIGN.md §11) of a
	// view that has this level applied. Negative means unknown — the
	// container predates bound recording.
	Bound float64
	// Bytes is the modeled size of the level's stored container, and Tier
	// is where it lives. The planner reads neither.
	Bytes int64
	Tier  Tier
}

// Step is one fetch of a Plan, in execution order.
type Step struct {
	// Level is the accuracy level whose product this step fetches.
	Level int
}

// Plan is a fully-resolved retrieval: the ordered product fetches plus the
// planner's verdict on what they achieve.
type Plan struct {
	// Target is the accuracy level the plan ends at.
	Target int
	// Tolerance is the requested error target for tolerance-driven plans,
	// or a negative value for level-driven plans.
	Tolerance float64
	// Unreachable is set on tolerance plans whose eps undercuts the finest
	// recorded bound: the plan still ends at the finest level, and the
	// executor reports how close it got.
	Unreachable bool
	// Steps are the fetches, coarsest first for Progressive plans and a
	// single entry for Direct plans.
	Steps []Step
	// Fallbacks is the degradation order for Direct plans: the coarser
	// levels to try, nearest first, when the target product cannot be
	// read. Empty for Progressive plans, which degrade by stopping at the
	// last step that applied cleanly.
	Fallbacks []int
}

// Planner builds Plans over one stored hierarchy's product set.
type Planner struct {
	mode  Mode
	prods []Product // indexed by level; prods[0] is the finest
}

// New validates the product set (one product per level, finest first) and
// returns a planner over it.
func New(mode Mode, prods []Product) (*Planner, error) {
	if len(prods) == 0 {
		return nil, fmt.Errorf("plan: no products")
	}
	for i, p := range prods {
		if p.Level != i {
			return nil, fmt.Errorf("plan: product %d has level %d; want products indexed by level", i, p.Level)
		}
	}
	return &Planner{mode: mode, prods: append([]Product(nil), prods...)}, nil
}

// boundsKnown reports whether every level carries a recorded bound.
func (p *Planner) boundsKnown() bool {
	for _, pr := range p.prods {
		if pr.Bound < 0 || math.IsNaN(pr.Bound) {
			return false
		}
	}
	return true
}

// stepsTo builds the coarse-to-fine fetch sequence ending at target: the
// base product first, then every finer product down to the target.
func (p *Planner) stepsTo(target int) []Step {
	steps := make([]Step, 0, len(p.prods)-target)
	for l := len(p.prods) - 1; l >= target; l-- {
		steps = append(steps, Step{Level: l})
	}
	return steps
}

// Fallbacks is the degradation order for a Direct retrieval of target: each
// coarser level in turn, nearest first. Progressive plans need no fallback
// list — they degrade by keeping the last level that restored cleanly.
func (p *Planner) Fallbacks(target int) []int {
	fb := make([]int, 0, len(p.prods)-target-1)
	for l := target + 1; l < len(p.prods); l++ {
		fb = append(fb, l)
	}
	return fb
}

// ForLevel plans a retrieval of an explicit accuracy level.
func (p *Planner) ForLevel(target int) (*Plan, error) {
	if target < 0 || target >= len(p.prods) {
		return nil, fmt.Errorf("plan: level %d out of range [0,%d)", target, len(p.prods))
	}
	pl := &Plan{Target: target, Tolerance: -1}
	if p.mode == Direct {
		pl.Steps = []Step{{Level: target}}
		pl.Fallbacks = p.Fallbacks(target)
	} else {
		pl.Steps = p.stepsTo(target)
	}
	return pl, nil
}

// ForTolerance plans the cheapest retrieval whose composed error bound
// meets eps. Bounds tighten and costs grow toward finer levels, so the
// cheapest satisfying plan ends at the coarsest level whose recorded bound
// is <= eps. Hierarchies without recorded bounds get the conservative
// level-order plan to the finest level; an eps tighter
// than the finest recorded bound also plans to the finest level but is
// flagged Unreachable so the executor can report how close it got.
func (p *Planner) ForTolerance(eps float64) (*Plan, error) {
	pl, err := p.toleranceTarget(eps)
	if err != nil {
		return nil, err
	}
	if p.mode == Direct {
		pl.Steps = []Step{{Level: pl.Target}}
		pl.Fallbacks = p.Fallbacks(pl.Target)
	} else {
		pl.Steps = p.stepsTo(pl.Target)
	}
	return pl, nil
}

// ForStream plans a streaming refinement toward eps: the full coarse-to-fine
// sequence ending at the tolerance target, so a subscriber sees the base
// immediately and every refinement after it. Direct-mode streams fetch each
// level independently rather than falling back to a single product — the
// stream's contract is incremental views, not minimal bytes.
func (p *Planner) ForStream(eps float64) (*Plan, error) {
	pl, err := p.toleranceTarget(eps)
	if err != nil {
		return nil, err
	}
	pl.Steps = p.stepsTo(pl.Target)
	return pl, nil
}

// toleranceTarget resolves eps to a target level and the plan flags, shared
// by ForTolerance and ForStream.
func (p *Planner) toleranceTarget(eps float64) (*Plan, error) {
	if !(eps > 0) {
		return nil, fmt.Errorf("plan: tolerance %g must be positive", eps)
	}
	pl := &Plan{Tolerance: eps}
	if !p.boundsKnown() {
		// Legacy container: no recorded bounds to compose, so the only
		// plan guaranteed to meet any eps is full accuracy, level order.
		pl.Target = 0
		return pl, nil
	}
	for l := len(p.prods) - 1; l >= 0; l-- {
		if p.prods[l].Bound <= eps {
			pl.Target = l
			return pl, nil
		}
	}
	pl.Target = 0
	pl.Unreachable = true
	return pl, nil
}

// ComposeBounds is the write-side bound composition rule (DESIGN.md §11):
// given the codec's absolute tolerance and the exact per-level delta maxima
// measured before compression (maxDeltas[l] = max|delta^(l<-(l+1))|, length
// levels-1), it returns the composed error bound of a view at each level,
// relative to the full-accuracy field through the zero-fill prolongation.
//
// Progressive mode applies (levels-l) lossy products to reach level l, each
// within tol (the corner estimators are convex combinations, so coarse
// perturbations propagate without amplification), and leaves the deltas
// finer than l unapplied, each bounded by its exact maximum:
//
//	B(l) = (levels-l)*tol + sum_{k<l} maxDeltas[k]
//
// Direct mode decodes exactly one product, so only one tol term applies:
//
//	B(l) = tol + sum_{k<l} maxDeltas[k]
//
// Bounds are non-increasing toward finer levels in both modes.
func ComposeBounds(mode Mode, levels int, tol float64, maxDeltas []float64) ([]float64, error) {
	if levels < 1 {
		return nil, fmt.Errorf("plan: levels %d < 1", levels)
	}
	if len(maxDeltas) != levels-1 {
		return nil, fmt.Errorf("plan: %d delta maxima for %d levels", len(maxDeltas), levels)
	}
	bounds := make([]float64, levels)
	var tail float64 // sum of the delta maxima left unapplied at level l
	for l := 0; l < levels; l++ {
		codec := tol
		if mode == Progressive {
			codec = float64(levels-l) * tol
		}
		bounds[l] = codec + tail
		if l < levels-1 {
			tail += math.Abs(maxDeltas[l])
		}
	}
	return bounds, nil
}
