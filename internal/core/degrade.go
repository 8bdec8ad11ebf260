package core

import (
	"context"
	"errors"
	"strconv"

	"repro/internal/obs"
	"repro/internal/storage"
)

// Graceful degradation. Canopus's decomposition into an independently
// usable base plus per-level deltas means a broken or unreachable delta
// does not have to fail a retrieval: every level already restored is a
// complete, valid view at its own accuracy. With degradation enabled
// (SetDegrade on an open reader) the read paths
// stop at the best accuracy actually achieved and attach a Degradation
// report instead of returning an error — the paper's accuracy-for-latency
// elasticity repurposed for availability. The base level itself has nothing
// coarser to fall back to, so base failures always surface as errors.

// evDegradation records each degraded retrieval in the flight recorder:
// which accuracy was asked for, what was actually served, and why.
var evDegradation = obs.RegisterEventType("degradation")

// Degradation reports a retrieval that completed below the accuracy it was
// asked for — a level it could not reach, or an error tolerance it could
// not meet.
type Degradation struct {
	// RequestedLevel is the accuracy the caller asked for (0 = full). For
	// tolerance-driven retrievals it is the level the planner resolved the
	// tolerance to.
	RequestedLevel int
	// AchievedLevel is the accuracy actually restored (>= RequestedLevel).
	AchievedLevel int
	// LevelsLost = AchievedLevel - RequestedLevel.
	LevelsLost int
	// RequestedTolerance is the error target of a tolerance-driven
	// retrieval (RetrieveToTolerance, Subscribe); 0 for level requests.
	RequestedTolerance float64
	// Reason is the storage error that stopped refinement, or the
	// planner's explanation when the requested tolerance is unreachable.
	Reason string
	// ErrorBound is the achieved view's composed absolute error bound from
	// the planner's recorded per-level bounds (see DESIGN.md §11). On
	// hierarchies written before bound recording it is the codec tolerance
	// when AchievedLevel is the finest level and -1 (unknown) otherwise.
	ErrorBound float64
}

// newDegradation builds the report for a retrieval stopped at `achieved` by
// err; bound is the achieved level's composed error bound (negative when
// unknown). Callers count the final report with countDegradation exactly
// once per retrieval (a regional retrieval may degrade more than once on
// its way down, keeping only the last report).
func newDegradation(requested, achieved int, err error, bound float64) *Degradation {
	if bound < 0 {
		bound = -1
	}
	return &Degradation{
		RequestedLevel: requested,
		AchievedLevel:  achieved,
		LevelsLost:     achieved - requested,
		Reason:         err.Error(),
		ErrorBound:     bound,
	}
}

// countDegradation records the final report once per retrieval as a
// flight-recorder event, and marks the request carried by ctx (if any) as
// degraded so the CostReport explains itself.
func countDegradation(ctx context.Context, d *Degradation) {
	evDegradation.Emit(
		"requested_level", strconv.Itoa(d.RequestedLevel),
		"achieved_level", strconv.Itoa(d.AchievedLevel),
		"levels_lost", strconv.Itoa(d.LevelsLost),
		"reason", d.Reason)
	obs.RequestFrom(ctx).SetDegraded(d.Reason)
}

// degradable reports whether err is a storage-layer failure a degraded
// retrieval may absorb: the product is gone, corrupt, or its tier keeps
// faulting after the hierarchy's own retries. Cancellation and deadline
// errors are the caller giving up, not the storage failing, and decode or
// layout errors on intact bytes are bugs — none of those degrade.
func degradable(err error) bool {
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return false
	}
	return errors.Is(err, storage.ErrNotFound) ||
		errors.Is(err, storage.ErrCorrupt) ||
		errors.Is(err, storage.ErrTransient)
}
