// Package place owns every placement decision in the Canopus storage
// hierarchy: which resident is evicted when a tier runs out of room, and
// which products a background promoter moves between tiers as the observed
// read workload shifts. Admission is fixed: a write lands on the first tier
// at or below its preferred one that takes it (the paper's §III-D
// fall-through), and the hierarchy walks that order itself.
//
// The split follows ScaleStore (SIGMOD '22): the storage engine
// (internal/storage) is pure mechanism — race-safe reads, envelope-verbatim
// migration, capacity accounting — while the policy deciding *what lives on
// the fast tier* is pluggable and workload-driven. Canopus (§IV-B) placed
// every level on its preferred tier once, at write time; on a realistic
// elastic hierarchy the preferred tier is only a hint, and placement must
// react to capacity pressure and to the read heat the access tracker
// observes on the Get/GetRange paths.
//
// Two policies ship:
//
//   - lru: byte-compatible with the historical behavior — least-recently-
//     used eviction and no background movement. The default.
//   - freq: frequency-decay — eviction and promotion rank products by an
//     exponentially decayed access frequency, so yesterday's hot set ages
//     out instead of pinning the fast tier forever.
//
// The storage hierarchy consults the policy through narrow callbacks and
// feeds the Tracker from its read paths; the Promoter runs the policy's
// Promote/Demote verdicts through the hierarchy's migration-race-safe
// Promote/Demote machinery in a background goroutine.
package place

import "repro/internal/obs"

// Placement metrics, canopus_place_*: background cycles run, moves applied
// (split by direction) and the bytes they shuttled, moves that failed (the
// key vanished, the destination filled up mid-cycle), and read touches.
var (
	metricCycles     = obs.NewCounter("canopus_place_cycles_total")
	metricPromotions = obs.NewCounter("canopus_place_promotions_total")
	metricDemotions  = obs.NewCounter("canopus_place_demotions_total")
	metricMovedBytes = obs.NewCounter("canopus_place_moved_bytes_total")
	metricMoveErrors = obs.NewCounter("canopus_place_move_errors_total")
	metricTouches    = obs.NewCounter("canopus_place_touches_total")
)

// Stats is one key's access history as the Tracker sees it, valued at the
// tracker's current logical clock.
type Stats struct {
	// LastUsed is the logical clock of the most recent write, read, or
	// promotion refresh; 0 means never touched since tracking began.
	LastUsed int64
	// Accesses counts read attempts (Get and GetRange both count; ranged
	// reads carry the same heat signal as whole-value reads).
	Accesses int64
	// Freq is the exponentially decayed access frequency: each access adds
	// 1, and the sum halves every half-life of logical clock ticks.
	Freq float64
}

// Candidate is one stored key as a policy decision sees it: its residency,
// its stored footprint, and its tracked heat.
type Candidate struct {
	Key    string
	Tier   int
	Stored int64 // real backend footprint (envelope framing included)
	Stats  Stats
}

// TierInfo is the capacity and usage of one tier, fastest first, as a
// policy decision sees it.
type TierInfo struct {
	Index    int
	Capacity int64 // <= 0 means unlimited
	Used     int64 // stored bytes currently resident
}

// View is a consistent snapshot of the whole hierarchy handed to
// Promote/Demote: every tier's capacity and usage and every key's residency
// and heat, keys sorted so policy output is deterministic for a given
// history.
type View struct {
	Tiers []TierInfo
	Keys  []Candidate
}

// Move is one placement change a policy wants applied: relocate Key to tier
// To. The mover resolves it through the hierarchy's race-safe
// Promote/Demote, evicting per the policy's Victim if the destination is
// full.
type Move struct {
	Key string
	To  int
}

// Policy decides placement. Implementations must be safe for concurrent
// use: Victim is called with the hierarchy lock held on the eviction path,
// while Promote/Demote run on the promoter goroutine against a View
// snapshot.
type Policy interface {
	// Name identifies the policy in flags and reports.
	Name() string
	// Victim picks the key to evict from a tier under capacity pressure,
	// from candidates resident on that tier (sorted by key), or "" when
	// nothing should be evicted.
	Victim(tier int, cands []Candidate) string
	// Promote returns the keys to move to faster tiers, best first.
	Promote(v View) []Move
	// Demote returns the keys to move to slower tiers to relieve capacity
	// pressure, coldest first.
	Demote(v View) []Move
}
