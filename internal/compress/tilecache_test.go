package compress

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestTileCacheHitMiss(t *testing.T) {
	c := NewTileCache(1 << 20)
	decodes := 0
	decode := func() ([]float64, error) {
		decodes++
		return []float64{1, 2, 3, 4}, nil
	}
	vals, hit, err := c.GetOrDecode("k", 0, 5, decode)
	if err != nil || hit || len(vals) != 4 {
		t.Fatalf("first get: vals=%v hit=%v err=%v", vals, hit, err)
	}
	vals, hit, err = c.GetOrDecode("k", 0, 5, decode)
	if err != nil || !hit || len(vals) != 4 {
		t.Fatalf("second get: vals=%v hit=%v err=%v", vals, hit, err)
	}
	if decodes != 1 {
		t.Fatalf("decode ran %d times, want 1", decodes)
	}
	// Distinct tile coordinates are distinct entries.
	if _, hit, _ := c.GetOrDecode("k", 1, 5, decode); hit {
		t.Fatal("different level must miss")
	}
	if _, hit, _ := c.GetOrDecode("k", 0, BaseTile, decode); hit {
		t.Fatal("base tile must miss")
	}
	hits, misses := c.Stats()
	if hits != 1 || misses != 3 {
		t.Fatalf("stats hits=%d misses=%d, want 1/3", hits, misses)
	}
	if got := c.SizeBytes(); got != 3*4*8 {
		t.Fatalf("SizeBytes=%d, want %d", got, 3*4*8)
	}
}

func TestTileCacheDecodeError(t *testing.T) {
	c := NewTileCache(1 << 20)
	boom := errors.New("boom")
	if _, _, err := c.GetOrDecode("k", 0, 0, func() ([]float64, error) { return nil, boom }); !errors.Is(err, boom) {
		t.Fatalf("err=%v, want boom", err)
	}
	// The failure is not cached: a later decode succeeds and fills.
	vals, hit, err := c.GetOrDecode("k", 0, 0, func() ([]float64, error) { return []float64{7}, nil })
	if err != nil || hit || len(vals) != 1 {
		t.Fatalf("retry: vals=%v hit=%v err=%v", vals, hit, err)
	}
}

func TestTileCacheEviction(t *testing.T) {
	c := NewTileCache(3 * 4 * 8) // room for three 4-value tiles
	decode := func() ([]float64, error) { return []float64{1, 2, 3, 4}, nil }
	for ci := 0; ci < 4; ci++ {
		if _, _, err := c.GetOrDecode("k", 0, ci, decode); err != nil {
			t.Fatal(err)
		}
	}
	if got := c.SizeBytes(); got > 3*4*8 {
		t.Fatalf("SizeBytes=%d over budget %d", got, 3*4*8)
	}
	// Tile 0 was least recently used and must be gone; tile 3 must remain.
	if _, hit, _ := c.GetOrDecode("k", 0, 0, decode); hit {
		t.Fatal("tile 0 should have been evicted")
	}
	if _, hit, _ := c.GetOrDecode("k", 0, 3, decode); !hit {
		t.Fatal("tile 3 should still be cached")
	}
}

func TestTileCacheInvalidate(t *testing.T) {
	c := NewTileCache(1 << 20)
	decode := func() ([]float64, error) { return []float64{1}, nil }
	c.GetOrDecode("a", 0, 0, decode)
	c.GetOrDecode("b", 0, 0, decode)
	c.Invalidate("a")
	if _, hit, _ := c.GetOrDecode("a", 0, 0, decode); hit {
		t.Fatal("invalidated key must miss")
	}
	if _, hit, _ := c.GetOrDecode("b", 0, 0, decode); !hit {
		t.Fatal("unrelated key must stay cached")
	}
}

// TestTileCacheHitAllocs pins the hot path: a cache hit must not allocate —
// the point of the cache is to make repeated analytics free, and an
// allocation per tile lookup would show up at fleet scale.
func TestTileCacheHitAllocs(t *testing.T) {
	c := NewTileCache(1 << 20)
	if _, _, err := c.GetOrDecode("k", 2, 9, func() ([]float64, error) { return []float64{1, 2}, nil }); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		_, hit, err := c.GetOrDecode("k", 2, 9, func() ([]float64, error) {
			t.Error("decode must not run on a hit")
			return nil, nil
		})
		if err != nil || !hit {
			t.Fatalf("hit=%v err=%v", hit, err)
		}
	})
	if allocs != 0 {
		t.Fatalf("hit path allocates %v times per op, want 0", allocs)
	}
}

// TestTileCacheSingleFlight runs many goroutines at the same cold tile and
// checks exactly one decode happens; run under -race this also exercises the
// lock discipline around the flight group and LRU.
func TestTileCacheSingleFlight(t *testing.T) {
	c := NewTileCache(1 << 20)
	var decodes atomic.Int64
	gate := make(chan struct{})
	const readers = 16
	var wg sync.WaitGroup
	for i := 0; i < readers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-gate
			vals, _, err := c.GetOrDecode("k", 0, 0, func() ([]float64, error) {
				decodes.Add(1)
				return []float64{42}, nil
			})
			if err != nil || len(vals) != 1 || vals[0] != 42 {
				t.Errorf("vals=%v err=%v", vals, err)
			}
		}()
	}
	close(gate)
	wg.Wait()
	if n := decodes.Load(); n != 1 {
		t.Fatalf("%d decodes for one tile, want 1 (single-flight)", n)
	}
}

// TestTileCacheInvalidateMidFlight invalidates the key while a decode is in
// flight: the fill lands under the dead generation and a reader arriving
// after the invalidation must decode fresh, never seeing the stale values.
func TestTileCacheInvalidateMidFlight(t *testing.T) {
	c := NewTileCache(1 << 20)
	started := make(chan struct{})
	release := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		vals, _, err := c.GetOrDecode("k", 0, 0, func() ([]float64, error) {
			close(started)
			<-release
			return []float64{1}, nil // stale by the time it lands
		})
		// The in-flight reader still gets its own (now stale) decode result.
		if err != nil || vals[0] != 1 {
			panic(fmt.Sprintf("in-flight reader: vals=%v err=%v", vals, err))
		}
	}()
	<-started
	c.Invalidate("k") // writer overwrites while the decode runs
	close(release)
	<-done
	// A post-invalidation reader must not see the dead-generation fill.
	vals, hit, err := c.GetOrDecode("k", 0, 0, func() ([]float64, error) {
		return []float64{2}, nil
	})
	if err != nil || hit || vals[0] != 2 {
		t.Fatalf("post-invalidate read: vals=%v hit=%v err=%v", vals, hit, err)
	}
}

// TestTileCacheFollowerOutlivesCancelledLeader: a reader joins another's
// in-flight decode, and that leader's decode gives up with
// context.Canceled. The follower's own request is live, so it must run its
// own decode and get its own values, not the leader's cancellation.
func TestTileCacheFollowerOutlivesCancelledLeader(t *testing.T) {
	c := NewTileCache(1 << 20)
	started := make(chan struct{})
	release := make(chan struct{})
	leaderErr := make(chan error, 1)
	go func() {
		_, _, err := c.GetOrDecode("k", 0, 0, func() ([]float64, error) {
			close(started)
			<-release
			return nil, context.Canceled
		})
		leaderErr <- err
	}()
	<-started
	type result struct {
		vals []float64
		err  error
	}
	follower := make(chan result, 1)
	go func() {
		vals, _, err := c.GetOrDecode("k", 0, 0, func() ([]float64, error) {
			return []float64{7}, nil
		})
		follower <- result{vals, err}
	}()
	// Let the follower join the leader's flight before the leader gives up.
	// A follower that arrives late leads its own decode and passes anyway,
	// so a slow machine cannot fail this test, only weaken it.
	time.Sleep(20 * time.Millisecond)
	close(release)
	if err := <-leaderErr; !errors.Is(err, context.Canceled) {
		t.Fatalf("leader: err = %v, want context.Canceled", err)
	}
	r := <-follower
	if r.err != nil {
		t.Fatalf("live follower got leader's cancellation: %v", r.err)
	}
	if len(r.vals) != 1 || r.vals[0] != 7 {
		t.Fatalf("follower vals = %v, want [7]", r.vals)
	}
}

// TestTileCacheConcurrentInvalidate hammers reads against invalidations; the
// invariant under -race is simply no data race and no stale generation served.
func TestTileCacheConcurrentInvalidate(t *testing.T) {
	c := NewTileCache(1 << 20)
	var gen atomic.Int64
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			gen.Add(1)
			c.Invalidate("k")
		}
		close(stop)
	}()
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				g := gen.Load()
				vals, _, err := c.GetOrDecode("k", 0, 0, func() ([]float64, error) {
					return []float64{float64(g)}, nil
				})
				if err != nil {
					t.Error(err)
					return
				}
				// Served values may lag the writer but never precede the
				// generation observed before our own decode was installed.
				if len(vals) != 1 {
					t.Errorf("vals=%v", vals)
					return
				}
				select {
				case <-stop:
					return
				default:
				}
			}
		}()
	}
	wg.Wait()
}

// SizeBytes reports the bytes of decoded values currently held.
func (c *TileCache) SizeBytes() int64 { return c.tiles.Size() }
