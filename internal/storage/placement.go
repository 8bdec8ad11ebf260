package storage

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/place"
)

// Placement policy wiring. The hierarchy is pure mechanism: it gathers the
// facts a decision needs (residency, capacity, tracked heat), hands them to
// the pluggable place.Policy, and executes the verdicts through the
// migration-race-safe machinery in migrate.go. The decision logic — eviction
// victim choice, hot-set promotion, capacity-pressure demotion — lives in
// internal/place; admission is the fixed fall-through in Put.

// SetPolicy installs the placement policy consulted for eviction victims
// and background movement. nil restores the default (place.LRU,
// byte-compatible with the historical static behavior). The policy applies
// to subsequent decisions; residency already established stays put until
// the policy moves it.
func (h *Hierarchy) SetPolicy(p place.Policy) {
	if p == nil {
		p = place.LRU{}
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	h.policy = p
}

// Policy reports the installed placement policy.
func (h *Hierarchy) Policy() place.Policy {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.policy
}

// PlacementView snapshots the hierarchy for a policy decision: every
// tier's capacity and usage, and every cataloged key's residency, stored
// size, and tracked heat, key-sorted for deterministic policy output.
func (h *Hierarchy) PlacementView() place.View {
	h.mu.Lock()
	defer h.mu.Unlock()
	var v place.View
	for i, t := range h.tiers {
		v.Tiers = append(v.Tiers, place.TierInfo{Index: i, Capacity: t.Capacity, Used: t.backend().Used()})
	}
	v.Keys = h.candidatesLocked(func(string, *entry) bool { return true })
	return v
}

// candidatesLocked builds key-sorted policy candidates from the catalog
// entries keep accepts. Caller holds the lock.
func (h *Hierarchy) candidatesLocked(keep func(key string, e *entry) bool) []place.Candidate {
	keys := make([]string, 0)
	for k, e := range h.catalog {
		if keep(k, e) {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	cands := make([]place.Candidate, 0, len(keys))
	for _, k := range keys {
		e := h.catalog[k]
		cands = append(cands, place.Candidate{Key: k, Tier: e.tier, Stored: e.stored, Stats: h.tracker.Stats(k)})
	}
	return cands
}

// moverAdapter adapts the hierarchy to place.Mover: snapshotting is
// PlacementView, and moves execute through the race-safe Promote/Demote.
type moverAdapter struct{ h *Hierarchy }

// Mover returns the place.Mover surface a Promoter drives.
func (h *Hierarchy) Mover() place.Mover { return moverAdapter{h} }

// PlacementView implements place.Mover.
func (m moverAdapter) PlacementView() place.View { return m.h.PlacementView() }

// ApplyMove implements place.Mover: one promotion or demotion through the
// migration machinery.
func (m moverAdapter) ApplyMove(mv place.Move) (int64, error) {
	h := m.h
	h.mu.Lock()
	e, ok := h.catalog[mv.Key]
	if !ok {
		h.mu.Unlock()
		return 0, fmt.Errorf("storage: apply move %q: %w", mv.Key, ErrNotFound)
	}
	cur, stored := e.tier, e.stored
	h.mu.Unlock()
	switch {
	case mv.To == cur:
		return 0, nil
	case mv.To < cur:
		_, err := h.Promote(mv.Key, mv.To)
		return stored, err
	default:
		_, err := h.Demote(mv.Key, mv.To)
		return stored, err
	}
}

// NewPromoter builds a background promoter/demoter over this hierarchy
// with its current policy, wires the read paths to nudge it (every
// successful read Kicks a cycle), and returns it unstarted: call Start for
// the background goroutine, or drive RunOnce directly for deterministic
// cycles. interval <= 0 selects place.DefaultPromoterInterval.
func (h *Hierarchy) NewPromoter(interval time.Duration) *place.Promoter {
	pr := place.NewPromoter(h.Mover(), h.Policy(), interval)
	h.promoter.Store(pr)
	return pr
}

// kickPromoter nudges an attached promoter, if any. Called outside the
// hierarchy lock on every successful read.
func (h *Hierarchy) kickPromoter() {
	if pr := h.promoter.Load(); pr != nil {
		pr.Kick()
	}
}
