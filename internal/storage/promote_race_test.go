package storage

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/place"
)

// raceHierarchy builds a two-tier file-backed stack with a bounded fast
// tier, the adaptive policy, and a short-interval promoter, pre-loaded with
// n keys on the slow tier.
func raceHierarchy(t *testing.T, n int, policy place.Policy) (*Hierarchy, *place.Promoter) {
	t.Helper()
	h, err := FileTwoTier(t.TempDir(), 4096)
	if err != nil {
		t.Fatal(err)
	}
	h.SetEnvelopeBlock(-1)
	h.SetPolicy(policy)
	ctx := context.Background()
	for i := 0; i < n; i++ {
		if _, err := h.Put(ctx, fmt.Sprintf("k%03d", i), payload(256), 1, 1); err != nil {
			t.Fatal(err)
		}
	}
	pr := h.NewPromoter(time.Millisecond)
	return h, pr
}

// Readers hammer a skewed key set while the promoter continuously moves the
// hot keys up; every read must return intact data regardless of which side
// of a migration it lands on. Run under -race.
func TestPromoterVsReaders(t *testing.T) {
	h, pr := raceHierarchy(t, 24, place.NewFreqDecay())
	pr.Start()
	defer pr.Stop()
	ctx := context.Background()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 150; i++ {
				// Skew: every goroutine hits a small hot set plus a
				// rotating cold key, so promotions and demotions overlap
				// in-flight reads.
				key := fmt.Sprintf("k%03d", (g*i)%6)
				if i%7 == 0 {
					key = fmt.Sprintf("k%03d", i%24)
				}
				data, _, err := h.Get(ctx, key, 1)
				if err != nil {
					t.Errorf("Get(%s): %v", key, err)
					return
				}
				if len(data) != 256 {
					t.Errorf("Get(%s): %d bytes, want 256", key, len(data))
					return
				}
				if i%3 == 0 {
					if _, _, err := h.GetRange(ctx, key, 64, 64, 1); err != nil {
						t.Errorf("GetRange(%s): %v", key, err)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
}

// Writers rewrite and delete keys while the promoter cycles: a move whose
// key vanished or changed underneath it must fail softly, never corrupt the
// catalog, and never deadlock. Run under -race.
func TestPromoterVsWriters(t *testing.T) {
	h, pr := raceHierarchy(t, 16, place.NewFreqDecay())
	pr.Start()
	defer pr.Stop()
	ctx := context.Background()
	var wg sync.WaitGroup
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				key := fmt.Sprintf("k%03d", (g*5+i)%16)
				switch i % 4 {
				case 0, 1:
					if _, err := h.Put(ctx, key, payload(256), 1, 1); err != nil {
						t.Errorf("Put(%s): %v", key, err)
						return
					}
				case 2:
					if _, _, err := h.Get(ctx, key, 1); err != nil {
						// A concurrent delete may have removed it.
						continue
					}
				case 3:
					h.Delete(key)
				}
			}
		}(g)
	}
	wg.Wait()
	// Whatever survived must still read back whole.
	for _, key := range h.Keys() {
		data, _, err := h.Get(ctx, key, 1)
		if err != nil {
			t.Fatalf("post-race Get(%s): %v", key, err)
		}
		if len(data) != 256 {
			t.Fatalf("post-race Get(%s): %d bytes", key, len(data))
		}
	}
}

// A promotion cycle racing a transient-write fault: the fast tier rejects
// writes (ErrTransient), so every background promotion into it fails softly
// while foreground Puts fall through to the slow tier — no data loss. Run
// under -race.
func TestPromoterVsTransientWriteFaults(t *testing.T) {
	h, pr := raceHierarchy(t, 12, place.NewFreqDecay())
	// Every write to the fast tier fails transiently from now on.
	if _, err := h.InjectFaults("seed=7,tier=tmpfs,write.err=1.0"); err != nil {
		t.Fatal(err)
	}
	pr.Start()
	defer pr.Stop()
	ctx := context.Background()
	var wg sync.WaitGroup
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 80; i++ {
				key := fmt.Sprintf("k%03d", (g+i)%12)
				if i%5 == 0 {
					// Preferred tier 0 is faulted: the admission loop must
					// fall through to the healthy slow tier.
					pl, err := h.Put(ctx, key, payload(256), 0, 1)
					if err != nil {
						t.Errorf("Put(%s): %v", key, err)
						return
					}
					if pl.TierIdx == 0 {
						t.Errorf("Put(%s) landed on the faulted tier", key)
						return
					}
					continue
				}
				if data, _, err := h.Get(ctx, key, 1); err != nil {
					t.Errorf("Get(%s): %v", key, err)
					return
				} else if len(data) != 256 {
					t.Errorf("Get(%s): %d bytes", key, len(data))
					return
				}
			}
		}(g)
	}
	wg.Wait()
	pr.Stop()
	// Promotions all failed against the faulted tier: every key must still
	// be on the slow tier and readable.
	for _, key := range h.Keys() {
		if w := h.Where(key); w != 1 {
			t.Fatalf("key %s on tier %d, want 1 (promotions must fail softly)", key, w)
		}
	}
}
