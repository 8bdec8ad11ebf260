package core

import (
	"context"

	"repro/internal/obs"
	"repro/internal/plan"
)

// Streaming refinement: Subscribe turns the progressive retrieval loop
// inside-out. Instead of the caller driving Base/Augment, the reader pushes
// a base view the moment it is restored and a refined view as each delta
// lands, until the subscriber's error tolerance is met — the paper's
// accuracy-for-latency elasticity as a push model. Analysis code renders the
// coarse view immediately and repaints as accuracy arrives.

// Subscribe retrieves toward the error tolerance eps, delivering a view per
// accuracy level on the returned channel: the base first, then each
// refinement, ending at the cheapest level whose recorded bound meets eps
// (full accuracy on hierarchies without recorded bounds). Each delivered
// View is a private snapshot — the subscriber may keep or mutate it freely.
//
// The channel is closed when the stream ends, for any reason:
//
//   - The tolerance target was reached: the last view's ErrorBound <= eps.
//   - eps is unreachable (tighter than the finest recorded bound): the final
//     full-accuracy view carries a terminal Degradation saying how close the
//     stream got.
//   - A delta could not be read: the stream ends with a final view of the
//     best accuracy achieved, carrying a terminal Degradation. Streams
//     always degrade gracefully — every view already delivered is valid, so
//     there is nothing to roll back — regardless of SetDegrade.
//   - ctx was cancelled: the stream stops without a terminal view. No
//     goroutine outlives the cancellation.
//   - The base itself could not be read: nothing was deliverable; the
//     channel closes with no views. Callers needing the cause should use
//     RetrieveToTolerance instead.
//
// Subscribe returns an error only for an invalid eps.
func (r *Reader) Subscribe(ctx context.Context, eps float64) (<-chan *View, error) {
	p, err := r.planner()
	if err != nil {
		return nil, err
	}
	pl, err := p.ForStream(eps)
	if err != nil {
		return nil, err
	}
	ch := make(chan *View)
	go r.stream(ctx, pl, ch)
	return ch, nil
}

// stream executes a streaming plan, sending a snapshot per completed step.
// Sends are unbuffered and every send selects on ctx.Done, so a cancelled
// subscriber never strands the goroutine.
func (r *Reader) stream(ctx context.Context, pl *plan.Plan, ch chan<- *View) {
	defer close(ch)
	ctx, req, owned := obs.BeginRequest(ctx, "core.subscribe")
	ctx, span := obs.StartSpan(ctx, "core.subscribe")
	span.SetAttr("name", r.name)
	span.SetAttrInt("target_level", pl.Target)
	defer span.End()

	send := func(v *View) bool {
		select {
		case ch <- v:
			return true
		case <-ctx.Done():
			return false
		}
	}

	var v *View
	for i, st := range pl.Steps {
		nv, err := r.advance(ctx, 0, v, st.Level)
		if err != nil && (ctx.Err() != nil || v == nil || !degradable(err)) {
			// Cancelled, base failure, or a non-storage bug: nothing more
			// to deliver.
			return
		}
		if err == nil {
			v = nv
		}
		out := snapshotView(v)
		if err != nil {
			// Refinement failed but every delivered view is valid: end the
			// stream with a terminal degradation report at the accuracy
			// achieved.
			r.degradeAt(ctx, span, out, pl, err)
		}
		last := err != nil || i == len(pl.Steps)-1
		if last {
			// The terminal view reports an eps the plan already knew was
			// unreachable, and carries the whole stream's bill.
			finishTolerance(ctx, out, pl)
			finishView(out, req, owned, span, metricSubscribeSeconds)
		}
		if !send(out) || last {
			return
		}
	}
}

// snapshotView clones a view for delivery: Data is copied (the stream keeps
// refining its own buffer), the mesh is shared (decoded once, immutable,
// cached by the reader).
func snapshotView(v *View) *View {
	nv := *v
	nv.Data = append([]float64(nil), v.Data...)
	return &nv
}
