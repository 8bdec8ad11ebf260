package storage

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/obs"
	"repro/internal/place"
)

// Hierarchy-wide metrics: read retries across every tier, and per-tier
// traffic counters named canopus_storage_<tier>_{read,write}_{bytes,ops}_total,
// built once at hierarchy construction; hierarchies sharing tier names
// (every test builds its own TitanTwoTier) share the process-wide counters.
var metricReadRetries = obs.NewCounter("canopus_storage_read_retries_total")

// tierMetrics caches one tier's counters so the read path pays map lookups
// only at construction, not per operation.
type tierMetrics struct {
	readBytes, readOps, writeBytes, writeOps *obs.Counter
}

func newTierMetrics(tierName string) tierMetrics {
	s := obs.SanitizeSegment(tierName)
	return tierMetrics{
		readBytes:  obs.NewCounter("canopus_storage_" + s + "_read_bytes_total"),
		readOps:    obs.NewCounter("canopus_storage_" + s + "_read_ops_total"),
		writeBytes: obs.NewCounter("canopus_storage_" + s + "_write_bytes_total"),
		writeOps:   obs.NewCounter("canopus_storage_" + s + "_write_ops_total"),
	}
}

// Hierarchy is an ordered stack of tiers, fastest first. It is mechanism
// plus one fixed rule: a write falls through from its preferred tier to the
// first slower one that takes it (the paper's §III-D). Every other placement
// decision — who gets evicted under capacity pressure, what the background
// promoter moves — is delegated to the pluggable place.Policy (SetPolicy),
// fed by the access tracker the read paths drive.
type Hierarchy struct {
	mu      sync.Mutex
	tiers   []*Tier
	tm      []tierMetrics // parallel to tiers
	catalog map[string]*entry
	// policy decides eviction and background movement; place.LRU by
	// default (byte-compatible with the historical LRU eviction).
	policy place.Policy
	// tracker is the per-key access tracker feeding the policy; it owns
	// the logical clock that keeps placement deterministic.
	tracker *place.Tracker
	// promoter, when attached (NewPromoter), is kicked by successful
	// reads so placement reacts to the workload within one cycle.
	promoter atomic.Pointer[place.Promoter]
	// envBlock is the integrity envelope checksum block size: 0 means
	// DefaultEnvelopeBlock, negative disables sealing (values store raw,
	// as before the envelope existed).
	envBlock int64
	// retry governs read retries; zero value means DefaultRetryPolicy.
	retry RetryPolicy
}

// entry is the catalog record for one stored key. size is always the
// caller-visible payload length (what Size reports and the cost model
// charges); stored is the real backend footprint, which exceeds size by the
// envelope framing when env is non-nil. env == nil marks a raw legacy value.
// Access history lives in the hierarchy's tracker, not here.
type entry struct {
	tier   int
	size   int64
	stored int64
	env    *envInfo
}

// NewHierarchy builds a hierarchy from tiers ordered fastest to slowest.
func NewHierarchy(tiers ...*Tier) *Hierarchy {
	h := &Hierarchy{
		tiers:   tiers,
		catalog: make(map[string]*entry),
		policy:  place.LRU{},
		tracker: place.NewTracker(),
	}
	for _, t := range tiers {
		t.backend() // materialize backends up front
		h.tm = append(h.tm, newTierMetrics(t.Name))
	}
	return h
}

// NumTiers reports the number of tiers.
func (h *Hierarchy) NumTiers() int { return len(h.tiers) }

// Tier returns tier i (0 = fastest).
func (h *Hierarchy) Tier(i int) *Tier { return h.tiers[i] }

// Placement records where a product landed and what the write cost was.
type Placement struct {
	Key      string
	TierIdx  int
	TierName string
	Cost     Cost
	// Bypassed lists tiers skipped for lack of capacity.
	Bypassed []string
}

// seal wraps data for storage per the hierarchy's envelope configuration.
// Caller holds the lock (envBlock is catalog state).
func (h *Hierarchy) seal(data []byte) ([]byte, *envInfo) {
	if h.envBlock < 0 {
		return data, nil
	}
	block := h.envBlock
	if block == 0 {
		block = DefaultEnvelopeBlock
	}
	return sealEnvelope(data, block)
}

// SetEnvelopeBlock configures the integrity envelope: n > 0 sets the
// checksum block size, 0 restores DefaultEnvelopeBlock, negative disables
// sealing so subsequent Puts store raw bytes (already-sealed values keep
// verifying). Tests with byte-exact capacity expectations disable it.
func (h *Hierarchy) SetEnvelopeBlock(n int64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.envBlock = n
}

// Put writes data to the first tier at or below `pref` that takes it: the
// paper's §III-D fall-through, trying the preferred tier, then each slower
// one in turn, skipping tiers that are full or transiently faulted (the
// write must land somewhere durable now, not after the tier recovers).
// `pref` is a hint; the placement policy may move the value later. The
// value is sealed in a checksum envelope (see envelope.go); capacity
// accounting uses the real sealed size while the simulated cost charges the
// payload, so modeled timings are envelope-independent. writers models how
// many clients share the tier's bandwidth for this operation (1 for serial
// writes). A cancelled ctx aborts before any byte lands.
func (h *Hierarchy) Put(ctx context.Context, key string, data []byte, pref int, writers int) (Placement, error) {
	if err := ctx.Err(); err != nil {
		return Placement{}, err
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if pref >= len(h.tiers) {
		pref = len(h.tiers) - 1
	}
	if pref < 0 {
		pref = 0
	}
	var bypassed []string
	var lastErr error
	sealed, env := h.seal(data)
	for i := pref; i < len(h.tiers); i++ {
		t := h.tiers[i]
		if !t.fits(int64(len(sealed))) {
			bypassed = append(bypassed, t.Name)
			continue
		}
		if err := t.backend().Put(key, sealed); err != nil {
			if errors.Is(err, ErrTransient) && i+1 < len(h.tiers) {
				bypassed = append(bypassed, t.Name)
				lastErr = err
				continue
			}
			return Placement{}, fmt.Errorf("storage: put %q on %s: %w", key, t.Name, err)
		}
		h.tm[i].writeBytes.Add(int64(len(data)))
		h.tm[i].writeOps.Inc()
		h.tracker.Wrote(key)
		h.catalog[key] = &entry{tier: i, size: int64(len(data)), stored: int64(len(sealed)), env: env}
		return Placement{
			Key:      key,
			TierIdx:  i,
			TierName: t.Name,
			Cost:     t.writeCost(int64(len(data)), writers),
			Bypassed: bypassed,
		}, nil
	}
	if lastErr != nil {
		return Placement{}, fmt.Errorf("storage: put %q (%d bytes): no tier at or below %d took the write: %w",
			key, len(data), pref, lastErr)
	}
	return Placement{}, fmt.Errorf("storage: put %q (%d bytes): %w on all tiers at or below %d",
		key, len(data), ErrCapacity, pref)
}

// Get reads a key from whichever tier holds it and records the access for
// the migration policy's LRU bookkeeping. The catalog lookup happens under
// the hierarchy lock, but the backend read does not: concurrent retrievals
// proceed in parallel, serialized only inside the (reader/writer-locked)
// backend. If a concurrent migration moves the key between the lookup and
// the read, the read is retried through the refreshed catalog (see
// readRetrying in migrate.go).
func (h *Hierarchy) Get(ctx context.Context, key string, readers int) ([]byte, Placement, error) {
	return h.readRetrying(ctx, key, readers, "storage.get", func(t *Tier, env *envInfo) ([]byte, error) {
		if env == nil {
			return backendGet(ctx, t.backend(), key)
		}
		return envGet(ctx, t.backend(), key, env)
	})
}

// GetRange reads exactly n bytes of key starting at off — the true ranged
// read the retrieval path issues for footers, indexes, and delta tiles. It
// shares Get's migration-retry contract: racing a Promote/Demote of the same
// key, it returns either the correct bytes or ErrNotFound, never torn data.
// The simulated cost charges only the extent moved.
func (h *Hierarchy) GetRange(ctx context.Context, key string, off, n int64, readers int) ([]byte, Placement, error) {
	return h.readRetrying(ctx, key, readers, "storage.get_range", func(t *Tier, env *envInfo) ([]byte, error) {
		if env == nil {
			return backendGetRange(ctx, t.backend(), key, off, n)
		}
		return envGetRange(ctx, t.backend(), key, env, off, n)
	})
}

// Size reports the stored byte length of key from the catalog, without
// touching the backend or the access tracker.
func (h *Hierarchy) Size(key string) (int64, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	e, ok := h.catalog[key]
	if !ok {
		return 0, fmt.Errorf("storage: size %q: %w", key, ErrNotFound)
	}
	return e.size, nil
}

// Where reports the tier index holding key, or -1.
func (h *Hierarchy) Where(key string) int {
	h.mu.Lock()
	defer h.mu.Unlock()
	if e, ok := h.catalog[key]; ok {
		return e.tier
	}
	return -1
}

// Delete removes key from the hierarchy and drops its access history.
func (h *Hierarchy) Delete(key string) error {
	h.mu.Lock()
	defer h.mu.Unlock()
	e, ok := h.catalog[key]
	if !ok {
		return nil
	}
	delete(h.catalog, key)
	h.tracker.Forget(key)
	return h.tiers[e.tier].backend().Delete(key)
}

// Keys lists all stored keys across tiers, as one deterministically sorted
// slice (the catalog is the source of truth; per-tier backend listings are
// each sorted but their concatenation was not).
func (h *Hierarchy) Keys() []string {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := make([]string, 0, len(h.catalog))
	for k := range h.catalog {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Presets for the storage configurations used by the experiments. Numbers
// are calibrated to the relative gaps in the paper's testbed (Titan tmpfs vs
// the production Lustre file system as seen by one client), not to marketing
// specs: the paper's own baseline read of a single XGC1 plane took seconds,
// i.e. an effective per-client PFS bandwidth in the tens of MB/s under
// production contention, three orders of magnitude below DRAM.

// TitanTwoTier reproduces the paper's evaluation setup: a DRAM-backed tmpfs
// tier over a contended Lustre-like parallel file system. tmpfsCapacity
// bounds the tmpfs tier (the paper allocates tmpfs proportional to output
// size); <= 0 leaves it unlimited.
func TitanTwoTier(tmpfsCapacity int64) *Hierarchy {
	return NewHierarchy(
		&Tier{
			Name:           "tmpfs",
			Capacity:       tmpfsCapacity,
			ReadBandwidth:  6e9,
			WriteBandwidth: 6e9,
			LatencySeconds: 2e-6,
		},
		&Tier{
			Name:           "lustre",
			ReadBandwidth:  1e7,
			WriteBandwidth: 1e7,
			LatencySeconds: 1e-3,
		},
	)
}

// FileTwoTier builds the Titan-like two-tier hierarchy with file-backed
// tiers under dir (dir/tmpfs and dir/lustre), so the command-line tools can
// refactor in one process and retrieve in another. Timing still comes from
// the simulated cost model.
func FileTwoTier(dir string, tmpfsCapacity int64) (*Hierarchy, error) {
	h := TitanTwoTier(tmpfsCapacity)
	for i := 0; i < h.NumTiers(); i++ {
		t := h.Tier(i)
		b, err := NewFileBackend(dir + "/" + t.Name)
		if err != nil {
			return nil, err
		}
		t.Backend = b
	}
	// Rebuild the catalog from what is on disk: fastest tier wins ties.
	// Sizes come from stat plus a header-sized ranged read to version-sniff
	// the integrity envelope (cf. the CCK2 magic sniff in internal/compress)
	// — opening a large persisted hierarchy stays O(keys), not O(bytes).
	// Values whose header does not parse as an envelope of exactly the
	// stored length are pre-envelope containers and read back raw.
	for i := h.NumTiers() - 1; i >= 0; i-- {
		for _, k := range h.Tier(i).Backend.Keys() {
			var size int64
			if n, err := h.Tier(i).Backend.Size(k); err == nil {
				size = n
			}
			e := &entry{tier: i, size: size, stored: size}
			if size >= envHeaderSize {
				if hdr, err := h.Tier(i).Backend.GetRange(k, 0, envHeaderSize); err == nil {
					if env, ok := parseEnvelopeHeader(hdr); ok && env.storedLen() == size {
						e.env = env
						e.size = env.payload
					}
				}
			}
			h.catalog[k] = e
		}
	}
	return h, nil
}

// InjectFaults wraps the hierarchy's tier backends with deterministic fault
// injection per spec (see ParseFaultSpec for the grammar). Each tier gets a
// distinct PRNG seed so fault sequences across tiers do not correlate. It
// returns how many tiers were wrapped; a spec naming a tier the hierarchy
// does not have matches none and returns 0.
func (h *Hierarchy) InjectFaults(spec string) (int, error) {
	fs, err := ParseFaultSpec(spec)
	if err != nil {
		return 0, err
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	n := 0
	for i, t := range h.tiers {
		if fs.Tier != "" && fs.Tier != t.Name {
			continue
		}
		tfs := fs
		tfs.Seed = fs.Seed + int64(i)*1_000_003
		t.Backend = NewFaultBackend(t.backend(), tfs)
		n++
	}
	return n, nil
}

// DeepHierarchy models the four-tier stack of the CORAL-era systems the
// paper anticipates (Fig. 2): NVRAM, burst buffer SSD, parallel file
// system, campaign storage.
func DeepHierarchy(nvramCap, bbCap int64) *Hierarchy {
	return NewHierarchy(
		&Tier{Name: "nvram", Capacity: nvramCap, ReadBandwidth: 1e10, WriteBandwidth: 5e9, LatencySeconds: 1e-6},
		&Tier{Name: "burst-buffer", Capacity: bbCap, ReadBandwidth: 2e9, WriteBandwidth: 1.5e9, LatencySeconds: 1e-4},
		&Tier{Name: "pfs", ReadBandwidth: 3e8, WriteBandwidth: 3e8, LatencySeconds: 5e-3},
		&Tier{Name: "campaign", ReadBandwidth: 5e7, WriteBandwidth: 5e7, LatencySeconds: 5e-2},
	)
}
