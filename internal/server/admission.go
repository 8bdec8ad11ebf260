package server

import (
	"context"
	"sync/atomic"
	"time"
)

// admission is the server's backpressure valve: a fixed pool of in-flight
// slots (sized to what the engine pools can absorb) fronted by a bounded
// wait queue. A request either takes a slot, waits up to `wait` for one, or
// is turned away with 429 + Retry-After — the engine never oversubscribes
// and the queue cannot grow without bound during a stampede.
type admission struct {
	slots    chan struct{}
	queued   atomic.Int64
	maxQueue int64
	wait     time.Duration
}

func newAdmission(inflight, maxQueue int, wait time.Duration) *admission {
	return &admission{
		slots:    make(chan struct{}, inflight),
		maxQueue: int64(maxQueue),
		wait:     wait,
	}
}

// acquire takes an in-flight slot, waiting up to a.wait. On success it
// returns a release func and ok=true. On saturation (queue full or wait
// exhausted) it returns ok=false and a Retry-After hint. A cancelled ctx
// (client gave up while queued) returns ok=false with no hint.
func (a *admission) acquire(ctx context.Context) (release func(), retryAfter time.Duration, ok bool) {
	select {
	case a.slots <- struct{}{}:
		return a.release, 0, true
	default:
	}
	if a.queued.Add(1) > a.maxQueue {
		a.queued.Add(-1)
		return nil, a.wait, false
	}
	defer a.queued.Add(-1)
	t := time.NewTimer(a.wait)
	defer t.Stop()
	select {
	case a.slots <- struct{}{}:
		return a.release, 0, true
	case <-t.C:
		return nil, a.wait, false
	case <-ctx.Done():
		return nil, 0, false
	}
}

func (a *admission) release() {
	<-a.slots
}
