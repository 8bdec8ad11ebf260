package storage

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strconv"
	"time"

	"repro/internal/obs"
)

// metricMigrations counts completed moves: promotions, demotions and
// evictions all route through move.
var metricMigrations = obs.NewCounter("canopus_storage_migrations_total")

// Flight-recorder event types for the decisions this file makes: each event
// says which key, which tier, and why.
var (
	evRetry          = obs.RegisterEventType("retry")
	evRetryExhausted = obs.RegisterEventType("retry_exhausted")
	evMigration      = obs.RegisterEventType("migration")
	evPromotion      = obs.RegisterEventType("promotion")
	evDemotion       = obs.RegisterEventType("demotion")
)

// Data migration and eviction. §IV-B of the paper notes its testbed assumed
// the base dataset always fits in tmpfs, and that "in a production
// environment, this may not be true and we believe data migration and
// eviction will play an integral part, which needs to be developed in
// Canopus". This file is the *mechanism* half: explicit race-safe
// promotion/demotion between tiers and eviction that makes room on a fast
// tier by pushing victims down the hierarchy. Who gets evicted — and what
// the background promoter moves — is decided by the pluggable placement
// policy in internal/place (LRU by default; see placement.go).

// Migration describes one completed move.
type Migration struct {
	Key      string
	FromTier string
	ToTier   string
	// Cost is the read-from-source plus write-to-destination expense.
	Cost Cost
}

// RetryPolicy bounds how the hierarchy re-reads after a retryable failure:
// up to Attempts total tries, sleeping an exponentially growing, jittered
// delay (BaseDelay doubling per attempt, capped at MaxDelay) between them.
type RetryPolicy struct {
	Attempts  int
	BaseDelay time.Duration
	MaxDelay  time.Duration
}

// DefaultRetryPolicy rides out migration races (which resolve in
// microseconds) without stretching a genuinely flaky tier's failure into
// human-noticeable latency: worst case ~40ms of sleeping across 5 attempts.
var DefaultRetryPolicy = RetryPolicy{
	Attempts:  5,
	BaseDelay: 200 * time.Microsecond,
	MaxDelay:  20 * time.Millisecond,
}

// SetRetryPolicy replaces the hierarchy's read retry policy. Zero-valued
// fields fall back to DefaultRetryPolicy's.
func (h *Hierarchy) SetRetryPolicy(p RetryPolicy) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.retry = p
}

func (h *Hierarchy) retryPolicy() RetryPolicy {
	h.mu.Lock()
	defer h.mu.Unlock()
	p := h.retry
	if p.Attempts <= 0 {
		p.Attempts = DefaultRetryPolicy.Attempts
	}
	if p.BaseDelay <= 0 {
		p.BaseDelay = DefaultRetryPolicy.BaseDelay
	}
	if p.MaxDelay < p.BaseDelay {
		p.MaxDelay = DefaultRetryPolicy.MaxDelay
	}
	return p
}

// delay is the backoff before attempt+2: exponential in the attempt number,
// capped, with the upper half jittered so racing readers do not retry in
// lockstep against the same contended tier.
func (p RetryPolicy) delay(attempt int) time.Duration {
	d := p.MaxDelay
	if attempt < 62 {
		if exp := p.BaseDelay << uint(attempt); exp > 0 && exp < d {
			d = exp
		}
	}
	return d/2 + time.Duration(rand.Int63n(int64(d/2)+1))
}

// retryableRead reports whether a failed backend read is worth re-issuing
// through a refreshed catalog lookup: the key vanished (a migration may
// have moved it between tiers mid-read), the tier faulted transiently, or
// the bytes came back damaged (corruption in transit reads clean on retry;
// corruption at rest exhausts the budget and surfaces as ErrCorrupt).
// Anything else — ErrOutOfRange against a present key, a real I/O error —
// is not a race and fails immediately.
func retryableRead(err error) bool {
	return errors.Is(err, ErrNotFound) || errors.Is(err, ErrTransient) || errors.Is(err, ErrCorrupt)
}

// readRetrying is the read-vs-migration race protocol shared by Get and
// GetRange. The catalog lookup happens under the hierarchy lock; the backend
// read does not, so a concurrent move can delete the key from the looked-up
// tier mid-read. Because move copies to the destination *before* deleting
// from the source, and every backend serves reads atomically under its own
// reader/writer lock, a racing read observes exactly one of three states:
// the full bytes on the source, the full bytes on the destination (after the
// retried lookup sees the updated catalog), or a transient not-found on the
// source that the retry resolves. Torn data is impossible. The same loop
// also absorbs transient backend faults and in-transit corruption (see
// retryableRead), sleeping a capped, jittered exponential backoff between
// attempts; once the policy's budget is spent the final error surfaces
// wrapped with the attempt count. Ranged reads share the protocol: a
// Promote/Demote racing a GetRange must never serve a range from a
// half-moved value, which holds because backends never expose partially
// written keys. The read closure receives the catalog's envelope record for
// the key as of the same lookup that chose the tier, so a concurrent Put
// that re-seals the key cannot pair the new envelope with the old tier.
func (h *Hierarchy) readRetrying(ctx context.Context, key string, readers int, op string, read func(t *Tier, env *envInfo) ([]byte, error)) ([]byte, Placement, error) {
	// No span on the happy path: one span per chunk read is the hottest
	// allocation in a retrieval and the same facts are already billed to the
	// request's per-tier counters (and mirrored onto the owning op's span as
	// cost.* attrs). A span materializes only once a read misbehaves, which
	// is exactly when an operator wants the per-read record.
	var span *obs.Span
	defer func() { span.End() }()
	req := obs.RequestFrom(ctx)
	pol := h.retryPolicy()
	var slept time.Duration
	for attempt := 0; ; attempt++ {
		if err := ctx.Err(); err != nil {
			return nil, Placement{}, err
		}
		h.mu.Lock()
		e, ok := h.catalog[key]
		if !ok {
			h.mu.Unlock()
			return nil, Placement{}, fmt.Errorf("storage: get %q: %w", key, ErrNotFound)
		}
		tierIdx := e.tier
		t := h.tiers[tierIdx]
		env := e.env
		// Heat signal for the placement policy: every attempt touches the
		// key (Get and GetRange alike), exactly where the old LRU clock
		// ticked.
		h.tracker.Touch(key)
		h.mu.Unlock()
		span.SetAttr("tier", t.Name)

		data, err := read(t, env)
		if err != nil && span == nil {
			if span = obs.FromContext(ctx).Child(op); span != nil {
				span.SetAttr("key", key)
				span.SetAttr("tier", t.Name)
			}
		}
		if err == nil {
			h.tm[tierIdx].readBytes.Add(int64(len(data)))
			h.tm[tierIdx].readOps.Inc()
			req.AddTierRead(t.Name, len(data))
			h.kickPromoter()
			span.SetAttrInt("bytes", len(data))
			return data, Placement{
				Key:      key,
				TierIdx:  tierIdx,
				TierName: t.Name,
				Cost:     t.readCost(int64(len(data)), readers),
			}, nil
		}
		if !retryableRead(err) {
			return nil, Placement{}, err
		}
		if attempt+1 >= pol.Attempts {
			evRetryExhausted.Emit("op", op, "key", key, "tier", t.Name,
				"attempts", strconv.Itoa(attempt+1), "error", err.Error())
			return nil, Placement{}, fmt.Errorf("storage: %s %q gave up after %d attempts: %w", op, key, attempt+1, err)
		}
		metricReadRetries.Inc()
		req.AddTierRetry(t.Name)
		evRetry.Emit("op", op, "key", key, "tier", t.Name,
			"attempt", strconv.Itoa(attempt+1), "error", err.Error())
		d := pol.delay(attempt)
		timer := time.NewTimer(d)
		select {
		case <-ctx.Done():
			timer.Stop()
			return nil, Placement{}, ctx.Err()
		case <-timer.C:
		}
		slept += d
		span.SetAttrInt("retries", attempt+1)
		span.SetAttr("backoff", slept.String())
	}
}

// move relocates key to tier `to` without policy checks. Caller holds the
// lock.
func (h *Hierarchy) move(key string, to int) (Migration, error) {
	e, ok := h.catalog[key]
	if !ok {
		return Migration{}, fmt.Errorf("storage: migrate %q: %w", key, ErrNotFound)
	}
	if to < 0 || to >= len(h.tiers) {
		return Migration{}, fmt.Errorf("storage: migrate %q: tier %d out of range", key, to)
	}
	src := h.tiers[e.tier]
	dst := h.tiers[to]
	if e.tier == to {
		return Migration{Key: key, FromTier: src.Name, ToTier: src.Name}, nil
	}
	// Migration copies the stored envelope verbatim — no unseal/reseal, so
	// a move can never introduce (or mask) corruption; verification happens
	// at read time wherever the value lands. Capacity checks use the real
	// stored bytes, the modeled cost charges the payload, same as Put/Get.
	data, err := src.backend().Get(key)
	if err != nil {
		return Migration{}, err
	}
	if !dst.fits(int64(len(data))) {
		return Migration{}, fmt.Errorf("storage: migrate %q to %s: %w", key, dst.Name, ErrCapacity)
	}
	if err := dst.backend().Put(key, data); err != nil {
		return Migration{}, err
	}
	if err := src.backend().Delete(key); err != nil {
		// Roll back the copy so the catalog stays truthful.
		_ = dst.backend().Delete(key)
		return Migration{}, err
	}
	m := Migration{Key: key, FromTier: src.Name, ToTier: dst.Name}
	m.Cost.Add(src.readCost(e.size, 1))
	m.Cost.Add(dst.writeCost(e.size, 1))
	e.tier = to
	metricMigrations.Inc()
	evMigration.Emit("key", key, "from", src.Name, "to", dst.Name,
		"bytes", strconv.FormatInt(int64(len(data)), 10))
	return m, nil
}

// Promote moves key to a faster tier (smaller index), evicting colder data
// from the destination if necessary.
func (h *Hierarchy) Promote(key string, to int) ([]Migration, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	e, ok := h.catalog[key]
	if !ok {
		return nil, fmt.Errorf("storage: promote %q: %w", key, ErrNotFound)
	}
	if to >= e.tier {
		return nil, fmt.Errorf("storage: promote %q: tier %d not above current %d", key, to, e.tier)
	}
	evictions, err := h.ensureRoomLocked(to, e.stored, key)
	if err != nil {
		return nil, err
	}
	m, err := h.move(key, to)
	if err != nil {
		return evictions, err
	}
	// A promotion refreshes recency (so the key does not become the next
	// eviction's victim) without counting as workload heat.
	h.tracker.Bump(key)
	evPromotion.Emit("key", key, "from", m.FromTier, "to", m.ToTier)
	return append(evictions, m), nil
}

// Demote moves key to a slower tier (larger index).
func (h *Hierarchy) Demote(key string, to int) (Migration, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	e, ok := h.catalog[key]
	if !ok {
		return Migration{}, fmt.Errorf("storage: demote %q: %w", key, ErrNotFound)
	}
	if to <= e.tier {
		return Migration{}, fmt.Errorf("storage: demote %q: tier %d not below current %d", key, to, e.tier)
	}
	m, err := h.move(key, to)
	if err == nil {
		evDemotion.Emit("key", key, "from", m.FromTier, "to", m.ToTier)
	}
	return m, err
}

// ensureRoomLocked evicts from `tier` until `bytes` fit, never moving
// `protect`. Caller holds the lock.
func (h *Hierarchy) ensureRoomLocked(tier int, bytes int64, protect string) ([]Migration, error) {
	if tier < 0 || tier >= len(h.tiers) {
		return nil, fmt.Errorf("storage: tier %d out of range", tier)
	}
	t := h.tiers[tier]
	var out []Migration
	for !t.fits(bytes) {
		// The victim choice is the policy's: LRU picks the least recently
		// used, freq the least frequently read resident.
		cands := h.candidatesLocked(func(k string, e *entry) bool { return e.tier == tier && k != protect })
		victim := h.policy.Victim(tier, cands)
		if victim == "" {
			return out, fmt.Errorf("storage: tier %s: %w (nothing evictable)", t.Name, ErrCapacity)
		}
		if tier+1 >= len(h.tiers) {
			return out, fmt.Errorf("storage: tier %s is the bottom tier: %w", t.Name, ErrCapacity)
		}
		// Cascade: make room below, then move the victim down one. Room is
		// measured in stored (envelope) bytes — what the backend will hold.
		sub, err := h.ensureRoomLocked(tier+1, h.catalog[victim].stored, protect)
		out = append(out, sub...)
		if err != nil {
			return out, err
		}
		m, err := h.move(victim, tier+1)
		if err != nil {
			return out, err
		}
		out = append(out, m)
	}
	return out, nil
}
