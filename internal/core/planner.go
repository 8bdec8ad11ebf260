package core

import (
	"fmt"
	"strconv"

	"repro/internal/adios"
	"repro/internal/bp"
	"repro/internal/plan"
)

// Bridge between the core read/write paths and the retrieval planner
// (internal/plan). The write side persists the planner's inputs — composed
// per-level error bounds and modeled container sizes — as file-level
// attributes of the metadata container; the read side parses them back and
// assembles the planner's product set, pricing each level against the tier
// its container currently occupies. Containers written before bound
// recording simply lack the attributes: the planner sees Bound -1 and falls
// back to conservative level-order plans.

// planMode maps the stored refactoring mode to the planner's.
func planMode(m Mode) plan.Mode {
	if m == ModeDirect {
		return plan.Direct
	}
	return plan.Progressive
}

// setPlanAttrs records the planner's per-level inputs on a metadata
// container: bound-L<l> (composed absolute error bound) and bytes-L<l>
// (modeled stored size).
func setPlanAttrs(w *bp.Writer, bounds []float64, levelBytes []int64) {
	for l, b := range bounds {
		w.SetAttr(fmt.Sprintf("bound-L%d", l), strconv.FormatFloat(b, 'g', -1, 64))
	}
	for l, n := range levelBytes {
		w.SetAttr(fmt.Sprintf("bytes-L%d", l), strconv.FormatInt(n, 10))
	}
}

// readPlanAttrs parses the planner inputs back off an open metadata
// container. Missing or malformed attributes — every container written
// before bound recording — yield Bound -1 (unknown) and Bytes 0, which the
// planner treats as "plan conservatively, estimate as free".
func readPlanAttrs(h *adios.Handle, levels int) (bounds []float64, levelBytes []int64) {
	bounds = make([]float64, levels)
	levelBytes = make([]int64, levels)
	for l := 0; l < levels; l++ {
		bounds[l] = -1
		if b, ok := h.AttrFloat(fmt.Sprintf("bound-L%d", l)); ok && b >= 0 {
			bounds[l] = b
		}
		if n, ok := h.AttrInt(fmt.Sprintf("bytes-L%d", l)); ok && n >= 0 {
			levelBytes[l] = n
		}
	}
	return bounds, levelBytes
}

// tierOf resolves the cost-model parameters of the tier holding key — or,
// when the placement policy's background promoter has published an intent
// to move it, the tier it is headed to (Hierarchy.PlannedTier): a plan
// built mid-cycle prices reads against the residency the policy is
// converging to, not a placement about to be stale. A key the catalog does
// not know prices as a zero Tier: estimates are advisory and must never
// block a retrieval.
func tierOf(aio *adios.IO, key string) plan.Tier {
	idx := aio.H.PlannedTier(key)
	if idx < 0 {
		return plan.Tier{}
	}
	t := aio.H.Tier(idx)
	return plan.Tier{
		Name:           t.Name,
		LatencySeconds: t.LatencySeconds,
		ReadBandwidth:  t.ReadBandwidth,
	}
}

// planFor builds the retrieval planner over step's product placement (step
// is ignored for a single write). Plans are rebuilt per retrieval: placement
// can change between calls (tier faults, migration), and construction is
// cheap. The recorded bounds are campaign-wide for a campaign (running
// maxima over every written step), so only the pricing depends on the step.
func (a *archive) planFor(step int) (*plan.Planner, error) {
	prods := make([]plan.Product, a.levels)
	for l := range prods {
		prods[l] = plan.Product{
			Level: l,
			Bound: a.bounds[l],
			Bytes: a.levelBytes[l],
			Tier:  tierOf(a.aio, a.payloadKey(step, l)),
		}
	}
	return plan.New(planMode(a.mode), prods)
}

// planner builds the retrieval planner for a single write.
func (r *Reader) planner() (*plan.Planner, error) { return r.planFor(0) }

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
