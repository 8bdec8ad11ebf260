package adios

import (
	"fmt"

	"repro/internal/engine"
)

// PageCache is an optional fixed-size read cache shared by every handle of
// one IO: an engine.Cache of aligned pages keyed by (storage key, page
// index). Concurrent readers missing the same page trigger one backend
// fetch, so a storm of clients opening the same hot base container does not
// multiply tier traffic.
//
// The cache serves *real* bytes only: the simulated cost model still charges
// each handle for the extents it touches, so experiment timings stay
// deterministic whether or not a cache is attached; what the cache changes
// is the actual bytes moved out of the backend (Handle.RealBytes).
type PageCache struct {
	pageSize int64
	pages    *engine.Cache[int64, []byte]
}

// DefaultPageSize is the page granularity when NewPageCache is given none.
const DefaultPageSize = 64 << 10

// NewPageCache builds a cache bounded to capacity bytes with the given page
// size (<= 0 means DefaultPageSize). It holds at least one page regardless
// of capacity.
func NewPageCache(capacity, pageSize int64) *PageCache {
	if pageSize <= 0 {
		pageSize = DefaultPageSize
	}
	// Every page costs a whole pageSize, short tail pages included, so the
	// cache holds capacity/pageSize pages whatever their lengths.
	cost := func([]byte) int64 { return pageSize }
	return &PageCache{pageSize, engine.NewCache[int64](capacity/pageSize*pageSize, cost)}
}

// Stats reports cache page hits and misses since construction.
func (c *PageCache) Stats() (hits, misses int64) { return c.pages.Stats() }

// Invalidate drops every cached page of one storage key. Writers call it
// when a key is overwritten so readers never see stale pages.
func (c *PageCache) Invalidate(key string) { c.pages.Invalidate(key) }

// readAt copies [off, off+len(p)) of the container `key` (of total length
// size) into p, filling missing pages through fetch. fetch reads an exact
// extent from the backing tier and is called at most once per missing page
// across all concurrent readers. The returned hit/miss counts are this
// call's alone, so callers (the per-handle cost tracker) can attribute
// cache behavior to the request that caused it.
func (c *PageCache) readAt(key string, size int64, p []byte, off int64, fetch func(off, n int64) ([]byte, error)) (hits, misses int64, err error) {
	for done := int64(0); done < int64(len(p)); {
		pos := off + done
		pageOff := pos - pos%c.pageSize
		page, hit, err := c.pages.Get(key, pos/c.pageSize, func() ([]byte, error) {
			return fetch(pageOff, min(c.pageSize, size-pageOff))
		})
		if hit {
			hits++
		} else {
			misses++
		}
		if err != nil {
			return hits, misses, err
		}
		n := copy(p[done:], page[pos-pageOff:])
		if n == 0 {
			return hits, misses, fmt.Errorf("adios: page cache: empty copy at %d of %q", pos, key)
		}
		done += int64(n)
	}
	return hits, misses, nil
}
