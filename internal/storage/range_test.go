package storage

import (
	"bytes"
	"context"
	"errors"
	"math"
	"sync"
	"testing"
)

// rangeBackends builds one backend of each kind holding the same payload.
func rangeBackends(t *testing.T, n int) map[string]Backend {
	t.Helper()
	mem := NewMemBackend()
	if err := mem.Put("k", payload(n)); err != nil {
		t.Fatal(err)
	}
	fb, err := NewFileBackend(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := fb.Put("k", payload(n)); err != nil {
		t.Fatal(err)
	}
	return map[string]Backend{"mem": mem, "file": fb}
}

func TestBackendGetRange(t *testing.T) {
	const size = 1000
	want := payload(size)
	for name, b := range rangeBackends(t, size) {
		t.Run(name, func(t *testing.T) {
			for _, c := range []struct{ off, n int64 }{
				{0, size}, {0, 1}, {size - 1, 1}, {100, 250}, {0, 0}, {size, 0},
			} {
				got, err := b.GetRange("k", c.off, c.n)
				if err != nil {
					t.Fatalf("GetRange(%d,%d): %v", c.off, c.n, err)
				}
				if !bytes.Equal(got, want[c.off:c.off+c.n]) {
					t.Fatalf("GetRange(%d,%d) returned wrong bytes", c.off, c.n)
				}
			}
			sz, err := b.Size("k")
			if err != nil || sz != size {
				t.Fatalf("Size = %d, %v; want %d", sz, err, size)
			}
		})
	}
}

func TestBackendGetRangeErrors(t *testing.T) {
	for name, b := range rangeBackends(t, 100) {
		t.Run(name, func(t *testing.T) {
			for _, c := range []struct{ off, n int64 }{
				{-1, 10}, {0, -1}, {0, 101}, {101, 0}, {90, 20}, {200, 1},
				{1, math.MaxInt64}, // off+n wraps negative
			} {
				if _, err := b.GetRange("k", c.off, c.n); !errors.Is(err, ErrOutOfRange) {
					t.Errorf("GetRange(%d,%d): err = %v, want ErrOutOfRange", c.off, c.n, err)
				}
			}
			if _, err := b.GetRange("ghost", 0, 1); !errors.Is(err, ErrNotFound) {
				t.Errorf("GetRange missing key: err = %v, want ErrNotFound", err)
			}
			if _, err := b.Size("ghost"); !errors.Is(err, ErrNotFound) {
				t.Errorf("Size missing key: err = %v, want ErrNotFound", err)
			}
		})
	}
}

// TestMemBackendGetRangeIsolated checks that mutating a returned range does
// not corrupt the stored value.
func TestMemBackendGetRangeIsolated(t *testing.T) {
	b := NewMemBackend()
	b.Put("k", payload(64))
	got, err := b.GetRange("k", 8, 16)
	if err != nil {
		t.Fatal(err)
	}
	for i := range got {
		got[i] = 0xFF
	}
	again, _ := b.GetRange("k", 8, 16)
	if !bytes.Equal(again, payload(64)[8:24]) {
		t.Fatal("GetRange shares memory with the stored value")
	}
}

func TestHierarchyGetRangeAndSize(t *testing.T) {
	h := migHierarchy(0, 0)
	if _, err := h.Put(context.Background(), "a", payload(500), 1, 1); err != nil {
		t.Fatal(err)
	}
	data, p, err := h.GetRange(context.Background(), "a", 100, 50, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, payload(500)[100:150]) {
		t.Fatal("ranged bytes differ from stored payload")
	}
	if p.TierName != "mid" {
		t.Fatalf("placement tier = %s, want mid", p.TierName)
	}
	if p.Cost.Bytes != 50 {
		t.Fatalf("ranged read charged %d bytes, want 50", p.Cost.Bytes)
	}
	full, _, _ := h.Get(context.Background(), "a", 1)
	if p.Cost.Bytes >= int64(len(full)) {
		t.Fatal("ranged read cost not below full read")
	}
	sz, err := h.Size("a")
	if err != nil || sz != 500 {
		t.Fatalf("Size = %d, %v; want 500", sz, err)
	}
	if _, err := h.Size("ghost"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Size missing: %v, want ErrNotFound", err)
	}
	if _, _, err := h.GetRange(context.Background(), "ghost", 0, 1, 1); !errors.Is(err, ErrNotFound) {
		t.Fatalf("GetRange missing: %v, want ErrNotFound", err)
	}
}

func TestCoalesceGapClamped(t *testing.T) {
	cases := []struct {
		tier Tier
		want int64
	}{
		// DRAM-like: latency*bandwidth below the floor.
		{Tier{LatencySeconds: 1e-9, ReadBandwidth: 1e9}, 512},
		// Disk-like: clamped at the 4 MiB ceiling.
		{Tier{LatencySeconds: 10e-3, ReadBandwidth: 2e9}, 4 << 20},
		// In between: exactly latency * bandwidth.
		{Tier{LatencySeconds: 1e-4, ReadBandwidth: 1e8}, 10000},
	}
	for _, c := range cases {
		if got := c.tier.CoalesceGap(); got != c.want {
			t.Errorf("CoalesceGap(lat=%g, bw=%g) = %d, want %d",
				c.tier.LatencySeconds, c.tier.ReadBandwidth, got, c.want)
		}
	}
}

// TestGetRangeDuringMigration races ranged reads against Promote/Demote of
// the same key. With backoff between retry attempts, even a pathological
// migration storm cannot exhaust the retry budget: every read must return
// the correct bytes, full stop — not-found, torn, or stale data all fail.
// Run with -race to check the locking too.
func TestGetRangeDuringMigration(t *testing.T) {
	h := migHierarchy(0, 0)
	const size = 4096
	want := payload(size)
	if _, err := h.Put(context.Background(), "hot", want, 0, 1); err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	migratorDone := make(chan error, 1)
	go func() {
		for {
			select {
			case <-stop:
				migratorDone <- nil
				return
			default:
			}
			if _, err := h.Demote("hot", 2); err != nil {
				migratorDone <- err
				return
			}
			if _, err := h.Promote("hot", 0); err != nil {
				migratorDone <- err
				return
			}
		}
	}()

	const readers = 8
	var wg sync.WaitGroup
	errs := make([]error, readers)
	for g := 0; g < readers; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			off := int64(g * 256)
			n := int64(512)
			for i := 0; i < 200; i++ {
				data, _, err := h.GetRange(context.Background(), "hot", off, n, 1)
				if err != nil {
					errs[g] = err
					return
				}
				if !bytes.Equal(data, want[off:off+n]) {
					errs[g] = errors.New("torn ranged read during migration")
					return
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	if err := <-migratorDone; err != nil {
		t.Fatalf("migrator: %v", err)
	}
	for g, err := range errs {
		if err != nil {
			t.Fatalf("reader %d: %v", g, err)
		}
	}
}
