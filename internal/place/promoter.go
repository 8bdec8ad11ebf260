package place

import (
	"context"
	"sync"
	"time"

	"repro/internal/obs"
)

// Mover is what the promoter drives: the storage hierarchy's mechanism
// surface, adapted to policy types (storage.Hierarchy.Mover returns one).
// Every ApplyMove rides the migration-race-safe Promote/Demote machinery,
// so a background cycle can never tear a concurrent read.
type Mover interface {
	// PlacementView snapshots residency, capacity, and tracked heat.
	PlacementView() View
	// ApplyMove executes one move and reports the stored bytes it
	// relocated. Failures are advisory: the key may have been deleted or
	// rewritten since the View, or the destination may have filled up.
	ApplyMove(m Move) (int64, error)
}

// Promoter runs a placement policy in the background: each cycle it
// snapshots the hierarchy, asks the policy what should move, and applies
// the verdicts through the race-safe migration machinery. Reads nudge it
// through Kick, so a workload shift is acted on within a cycle even when
// the interval is long.
type Promoter struct {
	mover    Mover
	pol      Policy
	interval time.Duration

	kick chan struct{}
	stop chan struct{}
	done chan struct{}

	// ctx is the background loop's context, cancelled by Stop before it
	// waits for the in-flight cycle: RunOnce checks it between moves, so
	// shutdown interrupts a long migration cycle promptly instead of
	// letting it run to completion against a detached context.
	ctx    context.Context
	cancel context.CancelFunc

	mu      sync.Mutex
	started bool
	stopped bool
}

// DefaultPromoterInterval paces background cycles when the caller does not
// choose: frequent enough to track an analysis session's focus, rare
// enough that an idle hierarchy costs nothing measurable.
const DefaultPromoterInterval = 250 * time.Millisecond

// NewPromoter builds (without starting) a promoter driving mover with pol.
// interval <= 0 selects DefaultPromoterInterval.
func NewPromoter(mover Mover, pol Policy, interval time.Duration) *Promoter {
	if interval <= 0 {
		interval = DefaultPromoterInterval
	}
	ctx, cancel := context.WithCancel(context.Background())
	return &Promoter{
		mover:    mover,
		pol:      pol,
		interval: interval,
		kick:     make(chan struct{}, 1),
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
		ctx:      ctx,
		cancel:   cancel,
	}
}

// Start launches the background goroutine. Idempotent; a no-op after Stop.
func (pr *Promoter) Start() {
	pr.mu.Lock()
	defer pr.mu.Unlock()
	if pr.started || pr.stopped {
		return
	}
	pr.started = true
	go pr.loop()
}

// Stop halts the background goroutine and waits for the in-flight cycle to
// finish. The loop's context is cancelled first, so a cycle mid-migration
// stops at the next move boundary rather than draining its whole move list.
// Idempotent; safe to call without Start.
func (pr *Promoter) Stop() {
	pr.mu.Lock()
	if !pr.stopped {
		pr.stopped = true
		pr.cancel()
		close(pr.stop)
	}
	started := pr.started
	pr.mu.Unlock()
	if started {
		<-pr.done
	}
}

// Kick nudges the promoter to run a cycle soon without waiting for the
// ticker. Non-blocking and coalescing: a storm of reads folds into one
// pending cycle.
func (pr *Promoter) Kick() {
	select {
	case pr.kick <- struct{}{}:
	default:
	}
}

func (pr *Promoter) loop() {
	defer close(pr.done)
	t := time.NewTicker(pr.interval)
	defer t.Stop()
	for {
		select {
		case <-pr.stop:
			return
		case <-t.C:
		case <-pr.kick:
		}
		pr.RunOnce(pr.ctx)
	}
}

// RunOnce runs one synchronous policy cycle and reports how many moves
// applied. Benchmarks and tests drive it directly for deterministic
// convergence; the background loop calls it on every tick or kick.
func (pr *Promoter) RunOnce(ctx context.Context) int {
	span := obs.FromContext(ctx).Child("place.cycle")
	span.SetAttr("policy", pr.pol.Name())
	defer span.End()
	metricCycles.Inc()

	v := pr.mover.PlacementView()
	promos := pr.pol.Promote(v)
	demos := pr.pol.Demote(v)
	span.SetAttrInt("planned", len(promos)+len(demos))
	if len(promos)+len(demos) == 0 {
		return 0
	}
	applied := 0
	var movedBytes int64
	apply := func(moves []Move, metric *obs.Counter) {
		for _, m := range moves {
			// A cancelled cycle (promoter shutdown, caller gave up) stops
			// between moves.
			if ctx.Err() != nil {
				return
			}
			n, err := pr.mover.ApplyMove(m)
			if err != nil {
				metricMoveErrors.Inc()
				continue
			}
			metric.Inc()
			metricMovedBytes.Add(n)
			movedBytes += n
			applied++
		}
	}
	apply(promos, metricPromotions)
	apply(demos, metricDemotions)
	span.SetAttrInt("applied", applied)
	span.SetAttrInt("moved_bytes", int(movedBytes))
	return applied
}
