package place

import (
	"math"
	"sync"
)

// DefaultHalfLife is the frequency-decay half-life in logical clock ticks:
// a key's decayed frequency halves every this-many accesses observed across
// the whole hierarchy. Logical time (one tick per operation) keeps decay —
// and therefore every placement decision — deterministic for a given
// operation history, the same property the storage cost model has.
const DefaultHalfLife = 4096

// Tracker is the per-key access tracker feeding placement decisions. The
// storage hierarchy drives it from the paths the obs counters already see:
// every Get/GetRange attempt Touches the key, every Put Wrotes it, every
// completed promotion Bumps it. It maintains the logical LRU clock that
// used to live inside the hierarchy, plus per-key access counts and an
// exponentially decayed access frequency for the adaptive policy.
//
// Lock order: the hierarchy calls Tracker methods while holding its own
// lock; the Tracker never calls back out, so its mutex is always innermost.
type Tracker struct {
	mu       sync.Mutex
	clock    int64
	halfLife float64
	m        map[string]*kstat
}

// kstat is one key's raw history. freq is valued at clock freqAt; readers
// decay it forward to the current clock.
type kstat struct {
	lastUsed int64
	accesses int64
	freq     float64
	freqAt   int64
}

// NewTracker returns an empty tracker with the default half-life.
func NewTracker() *Tracker {
	return &Tracker{halfLife: DefaultHalfLife, m: make(map[string]*kstat)}
}

// decayTo folds the elapsed ticks since s.freqAt into s.freq. Caller holds
// the lock. The decay factor is 2^(-dt/halfLife); dt is never negative
// because the clock is monotone.
func (tr *Tracker) decayTo(s *kstat, now int64) {
	if dt := now - s.freqAt; dt > 0 {
		s.freq *= math.Exp2(-float64(dt) / tr.halfLife)
		s.freqAt = now
	}
}

// stat returns (creating if needed) the record for key. Caller holds the
// lock.
func (tr *Tracker) stat(key string) *kstat {
	s, ok := tr.m[key]
	if !ok {
		s = &kstat{}
		tr.m[key] = s
	}
	return s
}

// Touch records one read attempt of key (Get and GetRange alike): the
// clock advances, recency refreshes, the access count increments, and the
// decayed frequency gains one access.
func (tr *Tracker) Touch(key string) {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	tr.clock++
	s := tr.stat(key)
	tr.decayTo(s, tr.clock)
	s.lastUsed = tr.clock
	s.accesses++
	s.freq++
	metricTouches.Inc()
}

// Bump refreshes key's recency without counting an access — the promotion
// refresh: a just-promoted key must not be the next eviction's LRU victim,
// but a migration is not workload heat.
func (tr *Tracker) Bump(key string) {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	tr.clock++
	s := tr.stat(key)
	tr.decayTo(s, tr.clock)
	s.lastUsed = tr.clock
}

// Wrote records a (re)write of key: the clock advances and the key's
// history resets — a fresh value carries no read heat, matching the
// hierarchy's historical behavior of resetting the access count on re-Put.
func (tr *Tracker) Wrote(key string) {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	tr.clock++
	tr.m[key] = &kstat{lastUsed: tr.clock, freqAt: tr.clock}
}

// Forget drops key's history (deletion).
func (tr *Tracker) Forget(key string) {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	delete(tr.m, key)
}

// Stats reports key's history valued at the current clock (frequency
// decayed forward). Unknown keys report zero Stats — indistinguishable
// from never-touched, which is exactly how eviction should treat them.
func (tr *Tracker) Stats(key string) Stats {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	s, ok := tr.m[key]
	if !ok {
		return Stats{}
	}
	tr.decayTo(s, tr.clock)
	return Stats{LastUsed: s.lastUsed, Accesses: s.accesses, Freq: s.freq}
}
