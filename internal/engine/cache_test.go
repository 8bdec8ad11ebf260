package engine

import (
	"fmt"
	"testing"
)

// testCache builds a cache of int slices costing their length.
func testCache(budget int64) *Cache[int, []int] {
	return NewCache[int](budget, func(v []int) int64 { return int64(len(v)) })
}

// TestCacheDropsDeadFill invalidates a namespace while one of its fills is
// in flight: the fill still serves its caller, but it is not stored and
// holds none of the budget.
func TestCacheDropsDeadFill(t *testing.T) {
	c := testCache(100)
	started := make(chan struct{})
	release := make(chan struct{})
	done := make(chan []int, 1)
	go func() {
		v, _, err := c.Get("k", 0, func() ([]int, error) {
			close(started)
			<-release
			return []int{1, 2, 3}, nil
		})
		if err != nil {
			t.Error(err)
		}
		done <- v
	}()
	<-started
	c.Invalidate("k")
	close(release)
	if v := <-done; len(v) != 3 {
		t.Fatalf("in-flight caller got %v, want its own fill", v)
	}
	if n := c.Size(); n != 0 {
		t.Fatalf("dead fill holds %d of the budget, want 0", n)
	}
}

// TestCacheBudgetKeepsOneEntry evicts least recently used entries by cost,
// and keeps a single entry that alone exceeds the budget.
func TestCacheBudgetKeepsOneEntry(t *testing.T) {
	c := testCache(4)
	get := func(k, n int) bool {
		t.Helper()
		_, hit, err := c.Get("k", k, func() ([]int, error) { return make([]int, n), nil })
		if err != nil {
			t.Fatal(err)
		}
		return hit
	}
	get(0, 2)
	get(1, 2)
	get(0, 2) // entry 1 is now the least recently used
	get(2, 2) // over budget: evicts entry 1
	if !get(0, 2) || !get(2, 2) {
		t.Fatal("entries 0 and 2 should still be cached")
	}
	if n := c.Size(); n != 4 {
		t.Fatalf("Size = %d, want 4", n)
	}
	get(3, 10) // evicts everything else, keeps itself
	if n := c.Size(); n != 10 {
		t.Fatalf("Size = %d, want 10 (one entry over budget)", n)
	}
	if !get(3, 10) {
		t.Fatal("the one entry over budget should stay cached")
	}
}

// TestCacheIdleNamespacesKeepNoState invalidates many namespaces that have
// no fill in flight, as a writer does for every fresh key it stores, and
// then fills and invalidates a few: the cache must hold no per-namespace
// state afterwards, or an always-on cache grows with every key written.
func TestCacheIdleNamespacesKeepNoState(t *testing.T) {
	c := testCache(100)
	for i := range 10000 {
		c.Invalidate(fmt.Sprint("k", i))
	}
	for i := range 10 {
		ns := fmt.Sprint("k", i)
		if _, _, err := c.Get(ns, 0, func() ([]int, error) { return []int{i}, nil }); err != nil {
			t.Fatal(err)
		}
		c.Invalidate(ns)
	}
	if n := len(c.spaces); n != 0 {
		t.Fatalf("cache holds state for %d idle namespaces, want 0", n)
	}
	if n := c.Size(); n != 0 {
		t.Fatalf("Size = %d after invalidating every namespace, want 0", n)
	}
}
