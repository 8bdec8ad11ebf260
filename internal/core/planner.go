package core

import (
	"fmt"
	"strconv"

	"repro/internal/adios"
	"repro/internal/bp"
	"repro/internal/plan"
)

// Bridge between the core read/write paths and the retrieval planner
// (internal/plan). The write side persists the planner's input, the
// composed per-level error bound, as a file-level attribute of the metadata
// container; the read side parses it back and assembles the planner's
// product set. Containers written before bound recording simply lack the
// attributes: the planner sees Bound -1 and falls back to conservative
// level-order plans. The writer also records each level's modeled stored
// size as bytes-L<l>; no planner reads it, and it is kept only because it
// is part of the stored format.

// planMode maps the stored refactoring mode to the planner's.
func planMode(m Mode) plan.Mode {
	if m == ModeDirect {
		return plan.Direct
	}
	return plan.Progressive
}

// setPlanAttrs records the per-level attributes on a metadata container:
// bound-L<l> (composed absolute error bound) and bytes-L<l> (modeled stored
// size).
func setPlanAttrs(w *bp.Writer, bounds []float64, levelBytes []int64) {
	for l, b := range bounds {
		w.SetAttr(fmt.Sprintf("bound-L%d", l), strconv.FormatFloat(b, 'g', -1, 64))
	}
	for l, n := range levelBytes {
		w.SetAttr(fmt.Sprintf("bytes-L%d", l), strconv.FormatInt(n, 10))
	}
}

// readPlanAttrs parses the recorded bounds back off an open metadata
// container. Missing or malformed attributes — every container written
// before bound recording — yield Bound -1 (unknown), which the planner
// treats as "plan conservatively".
func readPlanAttrs(h *adios.Handle, levels int) []float64 {
	bounds := make([]float64, levels)
	for l := range bounds {
		bounds[l] = -1
		if b, ok := h.AttrFloat(fmt.Sprintf("bound-L%d", l)); ok && b >= 0 {
			bounds[l] = b
		}
	}
	return bounds
}

// planner builds the retrieval planner over the recorded bounds. They are
// campaign-wide for a campaign (running maxima over every written step), so
// one planner serves every step.
func (a *archive) planner() (*plan.Planner, error) {
	prods := make([]plan.Product, a.levels)
	for l := range prods {
		prods[l] = plan.Product{Level: l, Bound: a.bounds[l]}
	}
	return plan.New(planMode(a.mode), prods)
}

// boundAt is the composed absolute error bound of a view at level l, from
// the bounds recorded at write time. Legacy hierarchies know only the
// finest level's codec bound; every other level reports -1 (unknown).
func (a *archive) boundAt(l int) float64 {
	if l >= 0 && l < len(a.bounds) && a.bounds[l] >= 0 {
		return a.bounds[l]
	}
	if l == 0 {
		return a.tolerance
	}
	return -1
}
