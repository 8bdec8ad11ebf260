package adios

import (
	"context"
	"errors"
	"fmt"
	"math"
	"strconv"
	"sync/atomic"

	"repro/internal/bp"
	"repro/internal/compress"
	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/storage"
)

// IO binds a storage hierarchy to a transport. It is the write/query/read
// surface Canopus uses for all data movement. Methods are safe for
// concurrent use: the engine's worker pool issues overlapping writes and
// retrievals through one IO.
//
// Payloads are opaque at this layer: the chunked codec container introduced
// by internal/compress (v2 "CCK2" frames) and plain v1 bitstreams travel
// through handles byte-for-byte unchanged. Readers sniff the frame magic on
// decode, so containers written with either framing interoperate across
// every transport and tier.
type IO struct {
	H         *storage.Hierarchy
	Transport Transport
	// Cache, when non-nil, serves ranged reads from a shared page cache so
	// concurrent readers of hot containers do not re-fetch from the tier.
	// Attach one with SetCache before issuing reads.
	Cache *PageCache
	// Tiles, when non-nil, is the shared decoded-tile cache handed to
	// every handle opened through this IO, invalidated alongside Cache.
	// Attach one with SetTileCache before issuing reads.
	Tiles *compress.TileCache

	// index caches parsed bp indexes by (storage key, container size), the
	// ADIOS metadata-caching analogue (see Open). WriteContainer
	// invalidates the rewritten key; a container rewritten to a new size
	// through another IO over the same hierarchy misses on its size.
	index *engine.Cache[int64, *cachedIndex]
}

// cachedIndex is one parsed-index cache entry: the shared bp index plus the
// modeled bytes its cold open charged (header, footer, index extents),
// charged again to every open that did not parse it.
type cachedIndex struct {
	r         *bp.Reader
	metaBytes int64
}

// NewIO returns an IO over h using transport t (nil means POSIX).
func NewIO(h *storage.Hierarchy, t Transport) *IO {
	if t == nil {
		t = POSIX{}
	}
	one := func(*cachedIndex) int64 { return 1 }
	return &IO{H: h, Transport: t, index: engine.NewCache[int64](math.MaxInt64, one)}
}

// SetCache attaches a shared page cache to every handle subsequently opened
// through this IO (nil detaches). It must not be called concurrently with
// reads or writes.
func (io *IO) SetCache(c *PageCache) *IO {
	io.Cache = c
	return io
}

// SetTileCache attaches a shared decoded-tile cache to every handle
// subsequently opened through this IO (nil detaches). It must not be called
// concurrently with reads or writes.
func (io *IO) SetTileCache(c *compress.TileCache) *IO {
	io.Tiles = c
	return io
}

// WriteContainer finalizes a BP container and writes it under key, preferring
// tier pref. A cancelled ctx aborts the write. Everything cached for an
// overwritten key is invalidated after the write returns, so a read that
// raced the write cannot leave the old container cached.
func (io *IO) WriteContainer(ctx context.Context, key string, w *bp.Writer, pref int) (storage.Placement, error) {
	p, err := io.Transport.Write(ctx, io.H, key, w.Bytes(), pref)
	io.dropCaches(key)
	return p, err
}

// dropCaches forgets everything this IO cached for key. Readers call it when
// a fetch reports storage.ErrCorrupt: the parsed index and any cached pages
// were derived from bytes that can no longer be trusted, and keeping them
// would let a later open serve a stale-but-plausible view of a container the
// operator has since repaired or rewritten.
func (io *IO) dropCaches(key string) {
	if io.Cache != nil {
		io.Cache.Invalidate(key)
	}
	if io.Tiles != nil {
		io.Tiles.Invalidate(key)
	}
	io.index.Invalidate(key)
}

// Handle is an open container. Reads through it are genuinely ranged: every
// fetch — footer, index, variable payloads — moves only the requested byte
// extents out of the storage backend, so opening a container and retrieving
// a base never materializes the deltas stored beside it. The simulated cost
// model charges the same extents, keeping modeled and real traffic aligned.
//
// A handle is safe for concurrent reads: the engine fetches independent
// delta tiles from one handle in parallel. The handle observes the context
// it was opened with — once that context is cancelled, every subsequent
// ranged read fails with the context's error, so a retrieval aborts
// mid-fetch instead of draining remaining tiles.
type Handle struct {
	// BP is the parsed container index.
	BP *bp.Reader
	// TierIdx and TierName identify where the container lives.
	TierIdx  int
	TierName string

	tracker *costTracker
	tiles   *compress.TileCache
}

// Key reports the storage key this handle reads — the namespace decoded-tile
// cache entries are filed (and invalidated) under.
func (h *Handle) Key() string { return h.tracker.key }

// TileCache returns the shared decoded-tile cache attached to the IO this
// handle was opened through, or nil. The tile read path in internal/core
// consults it before decoding.
func (h *Handle) TileCache() *compress.TileCache { return h.tiles }

// costTracker is the io.ReaderAt behind a handle. It serves every read as a
// true ranged read against the storage hierarchy (optionally through the
// shared page cache) and keeps two counters:
//
//   - modeled: bytes of container extents touched by the reader. This drives
//     the simulated cost and is deterministic for a given retrieval,
//     independent of cache state or the order concurrent reads complete in.
//   - real: bytes actually moved out of a storage backend on behalf of this
//     handle, including coalescing gaps and page-fill rounding, excluding
//     cache hits.
//
// Before this refactor the handle held the whole container in memory and
// only *charged* for extents; now the extents are what actually moves.
type costTracker struct {
	ctx context.Context
	h   *storage.Hierarchy
	// owner is the IO this tracker reads for; a corrupt fetch drops the
	// owner's caches for the key.
	owner *IO
	cache *PageCache
	key   string
	size  int64
	tier  *storage.Tier
	// bytes is the total modeled payload bytes fetched through this handle.
	bytes atomic.Int64
	// real is the bytes actually read from the backend for this handle.
	real atomic.Int64
	// cacheHits/cacheMisses are this handle's share of the page cache's
	// traffic (zero when no cache is attached), for per-request attribution.
	cacheHits   atomic.Int64
	cacheMisses atomic.Int64
	// readers models bandwidth sharing for this retrieval.
	readers int
}

// fetch moves one exact extent out of the hierarchy, retrying across
// concurrent migrations, and accounts the real traffic.
func (c *costTracker) fetch(off, n int64) ([]byte, error) {
	data, _, err := c.h.GetRange(c.ctx, c.key, off, n, c.readers)
	if err != nil {
		if c.owner != nil && errors.Is(err, storage.ErrCorrupt) {
			c.owner.dropCaches(c.key)
		}
		return nil, err
	}
	c.real.Add(int64(len(data)))
	return data, nil
}

// fetchInto fills p from container offset off, through the page cache when
// one is attached, without charging the cost model — callers account the
// modeled extents they asked for.
func (c *costTracker) fetchInto(p []byte, off int64) error {
	if err := c.ctx.Err(); err != nil {
		return err
	}
	if len(p) == 0 {
		return nil
	}
	if c.cache != nil {
		hits, misses, err := c.cache.readAt(c.key, c.size, p, off, c.fetch)
		c.cacheHits.Add(hits)
		c.cacheMisses.Add(misses)
		return err
	}
	data, err := c.fetch(off, int64(len(p)))
	if err != nil {
		return err
	}
	copy(p, data)
	return nil
}

func (c *costTracker) ReadAt(p []byte, off int64) (int, error) {
	if err := c.fetchInto(p, off); err != nil {
		return 0, err
	}
	// Bytes-proportional cost only; the per-operation latency is charged
	// once per Open so that parsing a fragmented index does not overcount
	// round trips.
	c.bytes.Add(int64(len(p)))
	return len(p), nil
}

func (c *costTracker) cost() storage.Cost {
	n := c.bytes.Load()
	return storage.Cost{
		Seconds: c.tier.LatencySeconds + float64(n)*float64(max(c.readers, 1))/c.tier.ReadBandwidth,
		Bytes:   n,
	}
}

// Open prepares selective retrieval of the container stored under key: it
// parses the footer and index through ranged reads and fetches nothing else.
// readers models how many analysis processes share the tier's bandwidth.
// The returned handle is bound to ctx: cancelling it fails subsequent reads
// through the handle.
func (io *IO) Open(ctx context.Context, key string, readers int) (*Handle, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	idx := io.H.Where(key)
	if idx < 0 {
		return nil, fmt.Errorf("adios: open %q: %w", key, storage.ErrNotFound)
	}
	size, err := io.H.Size(key)
	if err != nil {
		return nil, fmt.Errorf("adios: open %q: %w", key, err)
	}
	tier := io.H.Tier(idx)
	tr := &costTracker{
		ctx:     ctx,
		h:       io.H,
		owner:   io,
		cache:   io.Cache,
		key:     key,
		size:    size,
		tier:    tier,
		readers: readers,
	}

	// Re-open fast path: an unchanged container's index is served from the
	// IO's metadata cache, touching no storage, and concurrent cold opens
	// parse it once. The caller whose fill parsed it keeps its own reader,
	// already charged; every other caller binds the shared index to its
	// tracker and is charged the metadata extents, so a handle's modeled
	// cost does not depend on cache state. Only the real traffic and the
	// parse work disappear.
	var parsed *bp.Reader
	cached, _, err := io.index.Get(key, size, func() (*cachedIndex, error) {
		// The footer/index parse traces as an adios.open span; the ranged
		// reads it issues nest inside it. After the parse, the tracker
		// reverts to the caller's context so payload fetches attach to the
		// phase span active at fetch time (base, augment, region), not to
		// the open.
		spanCtx, span := obs.StartSpan(ctx, "adios.open")
		span.SetAttr("key", key)
		span.SetAttr("tier", tier.Name)
		tr.ctx = spanCtx
		r, err := bp.Open(tr, size)
		span.End()
		tr.ctx = ctx
		if err != nil {
			return nil, err
		}
		parsed = r
		return &cachedIndex{r: r, metaBytes: tr.bytes.Load()}, nil
	})
	if err == nil && parsed == nil {
		parsed, err = cached.r.WithReaderAt(tr, size)
		tr.bytes.Add(cached.metaBytes)
	}
	if err != nil {
		return nil, fmt.Errorf("adios: open %q: %w", key, err)
	}
	return &Handle{BP: parsed, TierIdx: idx, TierName: tier.Name, tracker: tr, tiles: io.Tiles}, nil
}

// Cost reports the simulated cost accumulated by this handle so far.
func (h *Handle) Cost() storage.Cost { return h.tracker.cost() }

// RealBytes reports the bytes actually moved out of the storage backend on
// behalf of this handle — page-cache hits excluded, coalescing gaps and page
// fills included. Compare with Cost().Bytes (the modeled extents) to see how
// closely real traffic tracks the cost model.
func (h *Handle) RealBytes() int64 { return h.tracker.real.Load() }

// CacheStats reports the page-cache hits and misses this handle's reads
// incurred (both zero when the IO has no cache attached). Request-scoped
// attribution folds these at the same single-fold sites as Cost and
// RealBytes.
func (h *Handle) CacheStats() (hits, misses int64) {
	return h.tracker.cacheHits.Load(), h.tracker.cacheMisses.Load()
}

// InqVar is the adios_inq_var analogue: metadata-only lookup.
func (h *Handle) InqVar(name string, level int) (bp.VarInfo, bool) {
	return h.BP.Inq(name, level)
}

// AttrFloat parses a float64 file-level attribute (the retrieval planner's
// per-level error bounds are persisted this way). Attributes travel with the
// footer/index extents an Open already fetched, so reading them moves no
// additional bytes. The second result is false when the attribute is absent
// or malformed — callers treat both as "not recorded" so legacy containers
// keep opening cleanly.
func (h *Handle) AttrFloat(key string) (float64, bool) {
	s, ok := h.BP.Attr(key)
	if !ok {
		return 0, false
	}
	f, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0, false
	}
	return f, true
}

// AttrInt parses an int64 file-level attribute (per-level modeled container
// sizes for plan cost estimation). Absent or malformed attributes report
// false.
func (h *Handle) AttrInt(key string) (int64, bool) {
	s, ok := h.BP.Attr(key)
	if !ok {
		return 0, false
	}
	n, err := strconv.ParseInt(s, 10, 64)
	if err != nil {
		return 0, false
	}
	return n, true
}

// ReadBytes selectively reads one variable's payload, charging only its
// extent.
func (h *Handle) ReadBytes(name string, level int) ([]byte, error) {
	v, ok := h.BP.Inq(name, level)
	if !ok {
		return nil, fmt.Errorf("adios: variable %s@%d not in container", name, level)
	}
	return h.BP.ReadBytes(v)
}

// ReadManyBytes fetches several variables' payloads in one planned pass:
// extents are coalesced with the tier's gap threshold (storage.Tier.
// CoalesceGap) and each merged range moves as a single ranged read, so a
// fetch of adjacent delta tiles pays one operation instead of one per tile.
// Results are returned in the order of vars, byte-equal to calling ReadBytes
// per variable. The cost model is charged for exactly the variable extents —
// identical to per-variable reads — while RealBytes additionally reflects
// the gap bytes the planner traded for fewer operations.
func (h *Handle) ReadManyBytes(vars []bp.VarInfo) ([][]byte, error) {
	out := make([][]byte, len(vars))
	exts := make([]extent, len(vars))
	for i, v := range vars {
		exts[i] = extent{Off: v.Offset, N: v.Size}
	}
	ranges := coalesce(exts, h.tracker.tier.CoalesceGap())
	for _, rg := range ranges {
		buf := make([]byte, rg.N)
		if err := h.tracker.fetchInto(buf, rg.Off); err != nil {
			return nil, fmt.Errorf("adios: ranged read [%d,%d): %w", rg.Off, rg.end(), err)
		}
		for i, v := range vars {
			if out[i] == nil && v.Offset >= rg.Off && v.Offset+v.Size <= rg.end() {
				out[i] = buf[v.Offset-rg.Off : v.Offset-rg.Off+v.Size : v.Offset-rg.Off+v.Size]
				h.tracker.bytes.Add(v.Size)
			}
		}
	}
	for i, v := range vars {
		if out[i] == nil && v.Size > 0 {
			return nil, fmt.Errorf("adios: variable %s@%d not covered by read plan", v.Name, v.Level)
		}
		if out[i] == nil {
			out[i] = []byte{}
		}
	}
	return out, nil
}
