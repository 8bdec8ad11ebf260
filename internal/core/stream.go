package core

import "context"

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
// Subscribe returns an error only for an invalid eps. The stream is the
// retrieval walk with a send hook: sends are unbuffered and every send
// selects on ctx.Done, so a cancelled subscriber never strands the
// goroutine.
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
	send := func(v *View) bool {
		select {
		case ch <- v:
			return true
		case <-ctx.Done():
			return false
		}
	}
	go func() {
		defer close(ch)
		// The terminal view carries the whole stream's bill.
		if v, err := r.run(ctx, 0, pl, send); err == nil && ctx.Err() == nil {
			send(v)
		}
	}()
	return ch, nil
}

// snapshotView clones a view for delivery: Data is copied (the stream keeps
// refining its own buffer), the mesh is shared (decoded once, immutable,
// cached by the reader).
func snapshotView(v *View) *View {
	nv := *v
	nv.Data = append([]float64(nil), v.Data...)
	return &nv
}
