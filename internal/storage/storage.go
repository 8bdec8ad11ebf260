// Package storage models the multi-tier HPC storage hierarchy Canopus
// places refactored data onto (§III-D of the paper): fast small tiers at the
// top (DRAM/tmpfs, NVRAM), slower larger ones toward the bottom (burst
// buffer, Lustre-like parallel file system, campaign store).
//
// The paper's evaluation ran on Titan with a DRAM-backed tmpfs and Lustre as
// a two-tier emulation. This package generalizes that: each tier has a
// capacity, bandwidth, and per-operation latency, and every Put/Get returns
// the *simulated* wall time the operation would take, so experiments report
// deterministic I/O timings independent of the host machine. Backends store
// real bytes (in memory or on disk), so data round trips are genuine; only
// the clock is modeled.
package storage

import (
	"errors"
	"fmt"
	"sort"
	"sync"
)

// Cost is the simulated expense of a storage operation.
type Cost struct {
	// Seconds of simulated wall time (latency + bytes/bandwidth).
	Seconds float64
	// Bytes moved.
	Bytes int64
}

// Add accumulates another cost.
func (c *Cost) Add(o Cost) {
	c.Seconds += o.Seconds
	c.Bytes += o.Bytes
}

// Backend stores bytes for a tier.
type Backend interface {
	Put(key string, data []byte) error
	Get(key string) ([]byte, error)
	// GetRange reads exactly n bytes starting at off. The extent must lie
	// fully inside the stored value: reads past the end fail with
	// ErrOutOfRange rather than returning short data. Backends serve the
	// range without materializing the rest of the value where the medium
	// allows (files use ReadAt), so a ranged read of a large container
	// moves only the requested bytes.
	GetRange(key string, off, n int64) ([]byte, error)
	// Size reports the stored byte length of key without reading it.
	Size(key string) (int64, error)
	Delete(key string) error
	// Used reports the bytes currently stored.
	Used() int64
	// Keys lists stored keys in sorted order.
	Keys() []string
}

// checkRange validates a [off, off+n) extent against a value of length size.
func checkRange(key string, off, n, size int64) error {
	if off < 0 || n < 0 || off > size || n > size-off {
		return fmt.Errorf("storage: %w: %q [%d,%d) of %d bytes", ErrOutOfRange, key, off, off+n, size)
	}
	return nil
}

// MemBackend is an in-memory Backend. It is safe for concurrent use;
// readers share an RWMutex so concurrent Gets do not serialize.
type MemBackend struct {
	mu   sync.RWMutex
	data map[string][]byte
	used int64
}

// NewMemBackend returns an empty in-memory backend.
func NewMemBackend() *MemBackend {
	return &MemBackend{data: make(map[string][]byte)}
}

// Put implements Backend.
func (b *MemBackend) Put(key string, data []byte) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if old, ok := b.data[key]; ok {
		b.used -= int64(len(old))
	}
	cp := append([]byte(nil), data...)
	b.data[key] = cp
	b.used += int64(len(cp))
	return nil
}

// Get implements Backend.
func (b *MemBackend) Get(key string) ([]byte, error) {
	b.mu.RLock()
	defer b.mu.RUnlock()
	d, ok := b.data[key]
	if !ok {
		return nil, fmt.Errorf("storage: %w: %q", ErrNotFound, key)
	}
	return append([]byte(nil), d...), nil
}

// GetRange implements Backend: the extent is copied out of the stored slice
// under the read lock, so concurrent writers never hand back torn bytes and
// the allocation is bounded by n, not the value size.
func (b *MemBackend) GetRange(key string, off, n int64) ([]byte, error) {
	b.mu.RLock()
	defer b.mu.RUnlock()
	d, ok := b.data[key]
	if !ok {
		return nil, fmt.Errorf("storage: %w: %q", ErrNotFound, key)
	}
	if err := checkRange(key, off, n, int64(len(d))); err != nil {
		return nil, err
	}
	return append([]byte(nil), d[off:off+n]...), nil
}

// Size implements Backend.
func (b *MemBackend) Size(key string) (int64, error) {
	b.mu.RLock()
	defer b.mu.RUnlock()
	d, ok := b.data[key]
	if !ok {
		return 0, fmt.Errorf("storage: %w: %q", ErrNotFound, key)
	}
	return int64(len(d)), nil
}

// Delete implements Backend.
func (b *MemBackend) Delete(key string) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if old, ok := b.data[key]; ok {
		b.used -= int64(len(old))
		delete(b.data, key)
	}
	return nil
}

// Used implements Backend.
func (b *MemBackend) Used() int64 {
	b.mu.RLock()
	defer b.mu.RUnlock()
	return b.used
}

// Keys implements Backend.
func (b *MemBackend) Keys() []string {
	b.mu.RLock()
	defer b.mu.RUnlock()
	out := make([]string, 0, len(b.data))
	for k := range b.data {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Errors returned by the hierarchy.
var (
	ErrNotFound   = errors.New("key not found")
	ErrCapacity   = errors.New("insufficient capacity")
	ErrOutOfRange = errors.New("range outside stored value")
)

// Tier is one level of the hierarchy with its performance envelope.
type Tier struct {
	// Name identifies the tier in reports ("tmpfs", "lustre", ...).
	Name string
	// Capacity in bytes; <= 0 means unlimited.
	Capacity int64
	// ReadBandwidth and WriteBandwidth in bytes/second, per writer.
	ReadBandwidth  float64
	WriteBandwidth float64
	// LatencySeconds is the fixed per-operation cost.
	LatencySeconds float64
	// Backend holds the bytes; nil gets a fresh MemBackend.
	Backend Backend
}

func (t *Tier) backend() Backend {
	if t.Backend == nil {
		t.Backend = NewMemBackend()
	}
	return t.Backend
}

// fits reports whether adding n bytes stays within capacity.
func (t *Tier) fits(n int64) bool {
	return t.Capacity <= 0 || t.backend().Used()+n <= t.Capacity
}

// writeCost models a write of n bytes by `writers` concurrent clients
// sharing the tier's bandwidth.
func (t *Tier) writeCost(n int64, writers int) Cost {
	if writers < 1 {
		writers = 1
	}
	return Cost{
		Seconds: t.LatencySeconds + float64(n)*float64(writers)/t.WriteBandwidth,
		Bytes:   n,
	}
}

// CoalesceGap is the break-even gap for merging two ranged reads on this
// tier: the bytes the tier streams in one operation latency. Two extents
// closer than this are cheaper to fetch as one range (paying the gap bytes)
// than as two operations (paying another latency), which is how read
// planners decide to coalesce. Clamped to [512 B, 4 MiB] so degenerate tier
// parameters cannot disable or explode coalescing.
func (t *Tier) CoalesceGap() int64 {
	g := int64(t.LatencySeconds * t.ReadBandwidth)
	if g < 512 {
		g = 512
	}
	if g > 4<<20 {
		g = 4 << 20
	}
	return g
}

func (t *Tier) readCost(n int64, readers int) Cost {
	if readers < 1 {
		readers = 1
	}
	return Cost{
		Seconds: t.LatencySeconds + float64(n)*float64(readers)/t.ReadBandwidth,
		Bytes:   n,
	}
}
