package compress

import "repro/internal/engine"

// TileCache is an optional byte-budgeted cache of *decoded* tiles, shared
// across requests: repeated analytics over the same region pay the bit-plane
// decode once and serve the floats from memory afterwards. It complements
// the adios page cache one layer up — the page cache removes backend byte
// traffic, this cache removes decompression CPU. It deliberately does NOT
// short-circuit the byte fetch: the modeled cost of every extent a request
// touches stays deterministic whether or not caches are attached (the same
// invariant the page cache keeps), so a cache hit shows up as ~0 decompress
// seconds in CostReport while the I/O columns are unchanged.
//
// It is an engine.Cache keyed by (storage key, level, tile index), each
// tile costing its decoded bytes.
//
// Cached slices are shared between callers and MUST be treated read-only;
// callers that hand decoded values to mutating consumers copy out first.
type TileCache struct {
	tiles *engine.Cache[tileKey, []float64]
}

// tileKey addresses one decoded tile within a container. ci is the tile
// (chunk) index; BaseTile (-1) addresses a container's whole base/direct
// product.
type tileKey struct {
	level int
	ci    int
}

// BaseTile is the tile index under which a container's whole decoded
// base/direct product is cached.
const BaseTile = -1

// NewTileCache builds a cache bounded to capacity bytes of decoded values.
// It holds at least one tile regardless of capacity.
func NewTileCache(capacity int64) *TileCache {
	cost := func(vals []float64) int64 { return 8 * int64(len(vals)) }
	return &TileCache{tiles: engine.NewCache[tileKey](capacity, cost)}
}

// Stats reports tile hits and misses since construction.
func (c *TileCache) Stats() (hits, misses int64) { return c.tiles.Stats() }

// Invalidate drops every cached tile of one storage key. Writers call it
// when a key is overwritten so readers never see stale decoded values.
func (c *TileCache) Invalidate(key string) { c.tiles.Invalidate(key) }

// GetOrDecode returns the decoded tile (level, ci) of container key, running
// decode on a miss with at most one decode in flight per tile. A caller that
// waited on another's decode missed. The hit path performs no allocations.
// The returned slice is shared and read-only.
func (c *TileCache) GetOrDecode(key string, level, ci int, decode func() ([]float64, error)) (vals []float64, hit bool, err error) {
	return c.tiles.Get(key, tileKey{level: level, ci: ci}, decode)
}
