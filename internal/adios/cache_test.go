package adios

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/bp"
	"repro/internal/storage"
)

func cachePayload(n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i*7 + 3)
	}
	return b
}

// fetchFrom returns a fetch func serving exact extents of data, counting
// calls.
func fetchFrom(data []byte, calls *atomic.Int64) func(off, n int64) ([]byte, error) {
	return func(off, n int64) ([]byte, error) {
		if calls != nil {
			calls.Add(1)
		}
		if off < 0 || n < 0 || off+n > int64(len(data)) {
			return nil, fmt.Errorf("fetch [%d,%d) outside %d bytes", off, off+n, len(data))
		}
		return append([]byte(nil), data[off:off+n]...), nil
	}
}

func TestPageCacheReadAt(t *testing.T) {
	data := cachePayload(1000)
	c := NewPageCache(1<<20, 256)
	var calls atomic.Int64
	fetch := fetchFrom(data, &calls)

	// Spanning read across page boundaries, including the short tail page.
	for _, rg := range []struct{ off, n int64 }{{0, 1000}, {100, 300}, {990, 10}, {0, 1}, {255, 2}} {
		p := make([]byte, rg.n)
		if _, _, err := c.readAt("k", 1000, p, rg.off, fetch); err != nil {
			t.Fatalf("readAt(%d,%d): %v", rg.off, rg.n, err)
		}
		if !bytes.Equal(p, data[rg.off:rg.off+rg.n]) {
			t.Fatalf("readAt(%d,%d) returned wrong bytes", rg.off, rg.n)
		}
	}
	// 1000 bytes / 256-byte pages = 4 pages: everything after the first
	// spanning read is a hit.
	if calls.Load() != 4 {
		t.Fatalf("fetch called %d times, want 4 (once per page)", calls.Load())
	}
	hits, misses := c.Stats()
	if misses != 4 || hits == 0 {
		t.Fatalf("stats hits=%d misses=%d, want 4 misses and some hits", hits, misses)
	}
}

func TestPageCacheEvictsLRU(t *testing.T) {
	data := cachePayload(1024)
	// Two pages of capacity over a four-page value.
	c := NewPageCache(512, 256)
	var calls atomic.Int64
	fetch := fetchFrom(data, &calls)
	p := make([]byte, 256)
	for _, idx := range []int64{0, 1, 2, 0} {
		if _, _, err := c.readAt("k", 1024, p, idx*256, fetch); err != nil {
			t.Fatal(err)
		}
	}
	// Page 0 was evicted by page 2, so the last read refetches: 4 fills.
	if calls.Load() != 4 {
		t.Fatalf("fetch called %d times, want 4 (page 0 evicted)", calls.Load())
	}
}

// TestPageCacheShortTailPageBudget pins the page bound on a container whose
// size is not a multiple of the page size. The cache holds
// capacity/pageSize whole pages whatever their length: a budget of actual
// bytes would fit the short tail page into the capacity's remainder and
// keep one page more.
func TestPageCacheShortTailPageBudget(t *testing.T) {
	const pageSize, tail = 256, 20
	const size = 3*pageSize + tail // pages 0-2 full, page 3 short
	data := cachePayload(size)
	c := NewPageCache(3*pageSize+32, pageSize) // room for N = 3 pages
	var calls atomic.Int64
	fetch := fetchFrom(data, &calls)
	read := func(idx int64) {
		t.Helper()
		n := min(int64(pageSize), size-idx*pageSize)
		p := make([]byte, n)
		if _, _, err := c.readAt("k", size, p, idx*pageSize, fetch); err != nil {
			t.Fatalf("page %d: %v", idx, err)
		}
		if !bytes.Equal(p, data[idx*pageSize:idx*pageSize+n]) {
			t.Fatalf("page %d: wrong bytes", idx)
		}
	}
	for idx := int64(0); idx < 4; idx++ {
		read(idx)
	}
	if calls.Load() != 4 {
		t.Fatalf("cold reads fetched %d times, want 4", calls.Load())
	}
	// Pages 3, 2 and 1 are resident: re-reading them fetches nothing.
	for _, idx := range []int64{3, 2, 1} {
		read(idx)
	}
	if calls.Load() != 4 {
		t.Fatalf("pages 1-3 refetched: %d fetches, want 4", calls.Load())
	}
	// Page 0, the least recently used, was the one evicted: exactly three
	// pages stayed resident.
	read(0)
	if calls.Load() != 5 {
		t.Fatalf("page 0 fetches = %d, want 5 (page 0 evicted first)", calls.Load())
	}
	hits, misses := c.Stats()
	if hits != 3 || misses != 5 {
		t.Fatalf("stats hits=%d misses=%d, want 3/5", hits, misses)
	}
}

func TestPageCacheInvalidate(t *testing.T) {
	old := cachePayload(256)
	c := NewPageCache(1<<20, 256)
	p := make([]byte, 256)
	if _, _, err := c.readAt("k", 256, p, 0, fetchFrom(old, nil)); err != nil {
		t.Fatal(err)
	}
	c.Invalidate("k")
	fresh := bytes.Repeat([]byte{0xAB}, 256)
	if _, _, err := c.readAt("k", 256, p, 0, fetchFrom(fresh, nil)); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(p, fresh) {
		t.Fatal("read after Invalidate served stale page")
	}
}

// TestPageCacheSingleFlight hammers one cold page from many goroutines; the
// single-flight group must collapse them into one backend fetch.
func TestPageCacheSingleFlight(t *testing.T) {
	data := cachePayload(4096)
	c := NewPageCache(1<<20, 4096)
	var calls atomic.Int64
	fetch := fetchFrom(data, &calls)
	var wg sync.WaitGroup
	errs := make([]error, 16)
	for g := 0; g < 16; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			p := make([]byte, 4096)
			if _, _, err := c.readAt("k", 4096, p, 0, fetch); err != nil {
				errs[g] = err
				return
			}
			if !bytes.Equal(p, data) {
				errs[g] = fmt.Errorf("goroutine %d read wrong bytes", g)
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if calls.Load() != 1 {
		t.Fatalf("fetch called %d times for one page, want 1", calls.Load())
	}
}

// TestPageCacheFollowerOutlivesCancelledLeader: a reader joins another's
// in-flight page fill, and that leader's fetch gives up with
// context.Canceled. The follower's own request is live, so it must fetch
// the page itself and get its bytes, not the leader's cancellation.
func TestPageCacheFollowerOutlivesCancelledLeader(t *testing.T) {
	data := cachePayload(256)
	c := NewPageCache(1<<20, 256)
	started := make(chan struct{})
	release := make(chan struct{})
	leaderErr := make(chan error, 1)
	go func() {
		_, _, err := c.readAt("k", 256, make([]byte, 256), 0, func(off, n int64) ([]byte, error) {
			close(started)
			<-release
			return nil, context.Canceled
		})
		leaderErr <- err
	}()
	<-started
	type result struct {
		p   []byte
		err error
	}
	follower := make(chan result, 1)
	go func() {
		p := make([]byte, 256)
		_, _, err := c.readAt("k", 256, p, 0, fetchFrom(data, nil))
		follower <- result{p, err}
	}()
	// Let the follower join the leader's flight before the leader gives up.
	// A follower that arrives late leads its own fetch and passes anyway,
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
	if !bytes.Equal(r.p, data) {
		t.Fatal("follower read wrong bytes")
	}
}

// TestPageCacheHitAllocs pins the hot path, the twin of compress's
// TestTileCacheHitAllocs: a read served entirely from cache must not
// allocate. With string page keys built by fmt.Sprintf this four-page read
// made 8 allocations, 2 per page.
func TestPageCacheHitAllocs(t *testing.T) {
	data := cachePayload(1000)
	c := NewPageCache(1<<20, 256)
	fetch := fetchFrom(data, nil)
	p := make([]byte, 1000)
	if _, _, err := c.readAt("k", 1000, p, 0, fetch); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		hits, misses, err := c.readAt("k", 1000, p, 0, func(off, n int64) ([]byte, error) {
			t.Error("fetch must not run on a hit")
			return nil, nil
		})
		if err != nil || hits != 4 || misses != 0 {
			t.Fatalf("hits=%d misses=%d err=%v, want 4 hits", hits, misses, err)
		}
	})
	if allocs != 0 {
		t.Fatalf("hit path allocates %v times per read, want 0", allocs)
	}
}

// TestCachedHandleReducesRealBytes reads the same variable through two
// handles sharing a cache: the second handle's real traffic must be zero
// while its modeled cost stays identical to the first's.
func TestCachedHandleReducesRealBytes(t *testing.T) {
	io := NewIO(storage.TitanTwoTier(0), nil).SetCache(NewPageCache(1<<20, 0))
	if _, err := io.WriteContainer(context.Background(), "c", container(t), 0); err != nil {
		t.Fatal(err)
	}
	read := func() (*Handle, []float64) {
		h, err := io.Open(context.Background(), "c", 1)
		if err != nil {
			t.Fatal(err)
		}
		vals, err := h.ReadFloats("dpot", 2)
		if err != nil {
			t.Fatal(err)
		}
		return h, vals
	}
	h1, v1 := read()
	h2, v2 := read()
	if fmt.Sprint(v1) != fmt.Sprint(v2) {
		t.Fatal("cached read returned different values")
	}
	if h1.Cost().Bytes != h2.Cost().Bytes {
		t.Fatalf("modeled cost changed with cache state: %d vs %d", h1.Cost().Bytes, h2.Cost().Bytes)
	}
	if h1.RealBytes() == 0 {
		t.Fatal("cold handle reports zero real bytes")
	}
	if h2.RealBytes() != 0 {
		t.Fatalf("warm handle moved %d real bytes, want 0 (all cache hits)", h2.RealBytes())
	}
}

// TestCacheInvalidateOnOverwrite rewrites a container under the same key and
// checks readers see the new bytes, not cached pages of the old container.
func TestCacheInvalidateOnOverwrite(t *testing.T) {
	io := NewIO(storage.TitanTwoTier(0), nil).SetCache(NewPageCache(1<<20, 0))
	if _, err := io.WriteContainer(context.Background(), "c", container(t), 0); err != nil {
		t.Fatal(err)
	}
	h, err := io.Open(context.Background(), "c", 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.ReadFloats("dpot", 2); err != nil {
		t.Fatal(err)
	}

	w := container(t)
	if err := w.PutFloats("extra", 0, []float64{42}, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := io.WriteContainer(context.Background(), "c", w, 0); err != nil {
		t.Fatal(err)
	}
	h2, err := io.Open(context.Background(), "c", 1)
	if err != nil {
		t.Fatal(err)
	}
	vals, err := h2.ReadFloats("extra", 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(vals) != 1 || vals[0] != 42 {
		t.Fatalf("read after overwrite = %v, want [42]", vals)
	}
}

// readingTransport opens and reads the key it is about to overwrite, then
// delegates the write to POSIX: a reader racing the rewrite, made
// deterministic. Whatever that read caches was derived from the old bytes.
type readingTransport struct{ io *IO }

func (readingTransport) Name() string { return "reading" }

func (t readingTransport) Write(ctx context.Context, h *storage.Hierarchy, key string, data []byte, pref int) (storage.Placement, error) {
	if h.Where(key) >= 0 {
		hd, err := t.io.Open(ctx, key, 1)
		if err != nil {
			return storage.Placement{}, err
		}
		for _, name := range []string{"a", "b"} {
			if _, err := hd.ReadFloats(name, 0); err != nil {
				return storage.Placement{}, err
			}
		}
	}
	return POSIX{}.Write(ctx, h, key, data, pref)
}

// TestRewriteNeverServesStaleIndexOrPages rewrites a container with one of
// the same size whose two variables swap lengths, while a reader reads the
// key between the cache drop and the store. Every open after the write
// must see the new container: neither a stale parsed index nor stale pages
// may survive the rewrite.
func TestRewriteNeverServesStaleIndexOrPages(t *testing.T) {
	build := func(a, b []float64) *bp.Writer {
		w := bp.NewWriter()
		if err := w.PutFloats("a", 0, a, nil); err != nil {
			t.Fatal(err)
		}
		if err := w.PutFloats("b", 0, b, nil); err != nil {
			t.Fatal(err)
		}
		return w
	}
	oldW := build([]float64{1}, []float64{2, 2, 2})
	newW := build([]float64{3, 3, 3}, []float64{4})
	if len(oldW.Bytes()) != len(newW.Bytes()) {
		t.Fatalf("containers differ in size (%d vs %d); the rewrite must be same-size", len(oldW.Bytes()), len(newW.Bytes()))
	}
	for _, cached := range []bool{false, true} {
		t.Run(fmt.Sprintf("pagecache=%v", cached), func(t *testing.T) {
			ctx := context.Background()
			io := NewIO(storage.TitanTwoTier(0), nil)
			io.Transport = readingTransport{io}
			if cached {
				io.SetCache(NewPageCache(1<<20, 0))
			}
			if _, err := io.WriteContainer(ctx, "c", oldW, 0); err != nil {
				t.Fatal(err)
			}
			if _, err := io.WriteContainer(ctx, "c", newW, 0); err != nil {
				t.Fatal(err)
			}
			h, err := io.Open(ctx, "c", 1)
			if err != nil {
				t.Fatal(err)
			}
			for _, want := range []struct {
				name string
				vals []float64
			}{{"a", []float64{3, 3, 3}}, {"b", []float64{4}}} {
				got, err := h.ReadFloats(want.name, 0)
				if err != nil {
					t.Fatalf("%s: %v", want.name, err)
				}
				if fmt.Sprint(got) != fmt.Sprint(want.vals) {
					t.Errorf("%s after rewrite = %v, want %v", want.name, got, want.vals)
				}
			}
		})
	}
}

// holdFirstBackend holds its first ranged read for 50 ms, keeping a cold
// open's parse in flight while concurrent opens of the same container
// arrive.
type holdFirstBackend struct {
	storage.Backend
	once *sync.Once
}

func (b holdFirstBackend) GetRange(key string, off, n int64) ([]byte, error) {
	b.once.Do(func() { time.Sleep(50 * time.Millisecond) })
	return b.Backend.GetRange(key, off, n)
}

// TestOpenColdContainerParsesOnce opens one cold container from many
// goroutines at once: one of them parses its index and the others share the
// parse, moving no bytes, while every handle is charged the same modeled
// metadata extents.
func TestOpenColdContainerParsesOnce(t *testing.T) {
	const n = 8
	io := newIO(t)
	if _, err := io.WriteContainer(context.Background(), "c", container(t), 0); err != nil {
		t.Fatal(err)
	}
	tier := io.H.Tier(io.H.Where("c"))
	tier.Backend = holdFirstBackend{tier.Backend, new(sync.Once)}
	handles := make([]*Handle, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for g := range n {
		wg.Add(1)
		go func() {
			defer wg.Done()
			handles[g], errs[g] = io.Open(context.Background(), "c", 1)
		}()
	}
	wg.Wait()
	parses := 0
	for g, h := range handles {
		if errs[g] != nil {
			t.Fatal(errs[g])
		}
		if h.RealBytes() > 0 {
			parses++
		}
		if h.Cost().Bytes != handles[0].Cost().Bytes {
			t.Fatalf("handle %d charged %d modeled bytes, handle 0 %d", g, h.Cost().Bytes, handles[0].Cost().Bytes)
		}
	}
	if parses != 1 {
		t.Fatalf("%d concurrent cold opens parsed the index %d times, want 1", n, parses)
	}
	if vals, err := handles[n-1].ReadFloats("dpot", 2); err != nil || len(vals) != 4 {
		t.Fatalf("read through a shared index: %v, %v", vals, err)
	}
}
