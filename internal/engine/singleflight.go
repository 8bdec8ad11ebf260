package engine

import (
	"context"
	"errors"
	"sync"
)

// Group deduplicates concurrent function calls by key: while one caller
// executes fn for a key, other callers of the same key wait and share the
// result instead of repeating the work. Reader caches use it so N analysis
// goroutines missing the same level's mesh trigger one decode, not N.
//
// A follower whose leader failed with a context error (Canceled or
// DeadlineExceeded) does not take that error, since only the leader's
// request died: it tries again, and may become the leader with its own fn.
// Results are not retained after the call completes; Cache layers on top.
type Group[K comparable, V any] struct {
	mu sync.Mutex
	m  map[K]*flightCall[V]
}

type flightCall[V any] struct {
	wg  sync.WaitGroup
	val V
	err error
}

// Do executes fn for key, suppressing duplicate concurrent calls.
func (g *Group[K, V]) Do(key K, fn func() (V, error)) (V, error) {
	g.mu.Lock()
	if g.m == nil {
		g.m = make(map[K]*flightCall[V])
	}
	if c, ok := g.m[key]; ok {
		g.mu.Unlock()
		c.wg.Wait()
		if errors.Is(c.err, context.Canceled) || errors.Is(c.err, context.DeadlineExceeded) {
			return g.Do(key, fn)
		}
		return c.val, c.err
	}
	c := new(flightCall[V])
	c.wg.Add(1)
	g.m[key] = c
	g.mu.Unlock()

	c.val, c.err = fn()
	c.wg.Done()

	g.mu.Lock()
	delete(g.m, key)
	g.mu.Unlock()
	return c.val, c.err
}
