package engine

import (
	"container/list"
	"sync"
	"sync/atomic"
)

// Cache is the one read-cache protocol: an LRU of values keyed by
// (namespace, generation, K), bounded by a cost budget and filled through a
// single-flight Group.
//
//   - Budget. Each entry costs what the owner's cost func says; an insert
//     past the budget evicts least recently used entries, always keeping
//     at least one.
//   - Generations. Each namespace (a storage key) has a generation that is
//     part of every entry's key. Invalidate drops the namespace's entries
//     and, while a fill for it is in flight, bumps its generation, so that
//     fill lands dead: it serves the caller that started it and is never
//     stored. An idle namespace keeps no state: Invalidate forgets it.
//   - Single flight. Concurrent misses on one entry run one fill; the
//     others wait and share it (merges), so misses = fills + merges once
//     fills settle.
type Cache[K comparable, V any] struct {
	budget int64
	cost   func(V) int64

	mu      sync.Mutex
	entries map[cacheKey[K]]*list.Element
	lru     list.List // front = most recent; values are *cacheEntry
	spaces  map[string]space
	size    int64

	flight       Group[cacheKey[K], V]
	hits, misses atomic.Int64
}

type cacheKey[K comparable] struct {
	ns  string
	gen uint64
	k   K
}

// space is one namespace's state. It is held only while the namespace has a
// miss in flight or a generation above zero.
type space struct {
	gen      uint64
	inflight int // callers between their miss and the end of their fill
}

type cacheEntry[K comparable, V any] struct {
	key  cacheKey[K]
	val  V
	cost int64
}

// NewCache builds a cache holding entries of total cost up to budget;
// per-instance hit and miss counts come from Stats.
func NewCache[K comparable, V any](budget int64, cost func(V) int64) *Cache[K, V] {
	return &Cache[K, V]{
		budget:  budget,
		cost:    cost,
		entries: make(map[cacheKey[K]]*list.Element),
		spaces:  make(map[string]space),
	}
}

// Stats reports this instance's hits and misses since construction.
func (c *Cache[K, V]) Stats() (hits, misses int64) { return c.hits.Load(), c.misses.Load() }

// Size reports the total cost of the entries held.
func (c *Cache[K, V]) Size() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.size
}

// Get returns the value for k in namespace ns, running fill on a miss with
// at most one fill in flight per entry. hit is false for a caller that
// waited on another's fill. The hit path performs no allocations. Values
// are shared between callers and must be treated read-only.
func (c *Cache[K, V]) Get(ns string, k K, fill func() (V, error)) (v V, hit bool, err error) {
	c.mu.Lock()
	sp := c.spaces[ns]
	key := cacheKey[K]{ns: ns, gen: sp.gen, k: k}
	v, hit = c.lookupLocked(key)
	if !hit {
		sp.inflight++
		c.spaces[ns] = sp
	}
	c.mu.Unlock()
	if hit {
		c.hits.Add(1)
		return v, true, nil
	}
	c.misses.Add(1)
	defer c.settle(ns)
	v, err = c.flight.Do(key, func() (V, error) {
		c.mu.Lock()
		v, ok := c.lookupLocked(key)
		c.mu.Unlock()
		if ok {
			return v, nil // raced with another fill
		}
		v, err := fill()
		if err == nil {
			c.insert(key, v)
		}
		return v, err
	})
	return v, false, err
}

func (c *Cache[K, V]) lookupLocked(key cacheKey[K]) (v V, ok bool) {
	el, ok := c.entries[key]
	if ok {
		c.lru.MoveToFront(el)
		v = el.Value.(*cacheEntry[K, V]).val
	}
	return v, ok
}

// insert stores a fill unless its generation died in flight, then evicts
// past the budget. Single flight means the key is not already held.
func (c *Cache[K, V]) insert(key cacheKey[K], v V) {
	cost := c.cost(v)
	c.mu.Lock()
	defer c.mu.Unlock()
	if key.gen != c.spaces[key.ns].gen {
		return
	}
	c.entries[key] = c.lru.PushFront(&cacheEntry[K, V]{key: key, val: v, cost: cost})
	c.size += cost
	for c.size > c.budget && c.lru.Len() > 1 {
		c.remove(c.lru.Back())
	}
}

// settle ends one miss on namespace ns, forgetting the namespace once it
// holds nothing.
func (c *Cache[K, V]) settle(ns string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	sp := c.spaces[ns]
	sp.inflight--
	if sp == (space{}) {
		delete(c.spaces, ns)
	} else {
		c.spaces[ns] = sp
	}
}

// Invalidate drops every entry of namespace ns. While a fill for ns is in
// flight it also bumps the generation, so that fill is never stored;
// otherwise it forgets the namespace. Writers call it after a storage key
// is overwritten so readers never see stale values.
func (c *Cache[K, V]) Invalidate(ns string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if sp := c.spaces[ns]; sp.inflight > 0 {
		sp.gen++
		c.spaces[ns] = sp
	} else {
		delete(c.spaces, ns)
	}
	for el := c.lru.Front(); el != nil; {
		next := el.Next()
		if el.Value.(*cacheEntry[K, V]).key.ns == ns {
			c.remove(el)
		}
		el = next
	}
}

// remove drops one entry.
func (c *Cache[K, V]) remove(el *list.Element) {
	e := c.lru.Remove(el).(*cacheEntry[K, V])
	delete(c.entries, e.key)
	c.size -= e.cost
}
