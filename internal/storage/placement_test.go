package storage

import (
	"context"
	"reflect"
	"testing"
	"time"

	"repro/internal/place"
)

// Satellite fix: Keys must be deterministically sorted regardless of which
// tier holds each key or the order writes landed.
func TestKeysSortedAcrossTiers(t *testing.T) {
	h := migHierarchy(0, 0)
	ctx := context.Background()
	h.Put(ctx, "zeta", payload(10), 0, 1)
	h.Put(ctx, "alpha", payload(10), 2, 1)
	h.Put(ctx, "mid", payload(10), 1, 1)
	want := []string{"alpha", "mid", "zeta"}
	if got := h.Keys(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Keys() = %v, want %v", got, want)
	}
}

// Satellite fix: Accesses counts partial reads too — GetRange goes through
// the same retry path as Get and must heat the key identically.
func TestAccessesCountsGetRange(t *testing.T) {
	h := migHierarchy(0, 0)
	ctx := context.Background()
	h.Put(ctx, "k", payload(100), 0, 1)
	if n := h.Accesses("k"); n != 0 {
		t.Fatalf("fresh key accesses = %d, want 0", n)
	}
	if _, _, err := h.Get(ctx, "k", 1); err != nil {
		t.Fatal(err)
	}
	if _, _, err := h.GetRange(ctx, "k", 10, 20, 1); err != nil {
		t.Fatal(err)
	}
	if _, _, err := h.GetRange(ctx, "k", 0, 5, 1); err != nil {
		t.Fatal(err)
	}
	if n := h.Accesses("k"); n != 3 {
		t.Fatalf("accesses = %d, want 3 (1 Get + 2 GetRange)", n)
	}
}

func TestSetPolicySelectsVictim(t *testing.T) {
	// Under freq policy the eviction victim is the lowest-frequency key,
	// not the least recent — "old" is read often, "new" only once, so
	// despite "new" being the most recent access, "new" is evicted.
	h := migHierarchy(250, 0)
	h.SetPolicy(place.NewFreqDecay())
	ctx := context.Background()
	h.Put(ctx, "old", payload(100), 0, 1)
	h.Put(ctx, "new", payload(100), 0, 1)
	for i := 0; i < 5; i++ {
		if _, _, err := h.Get(ctx, "old", 1); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, err := h.Get(ctx, "new", 1); err != nil {
		t.Fatal(err)
	}
	migs, err := h.EnsureRoom(0, 100)
	if err != nil {
		t.Fatal(err)
	}
	if len(migs) != 1 || migs[0].Key != "new" {
		t.Fatalf("evicted %+v, want new (lowest freq)", migs)
	}
}

// The promoter must pull a read-hot key up to the fast tier through the
// real migration machinery, and the placement view must reflect it.
func TestPromoterPullsHotKeyUp(t *testing.T) {
	h := migHierarchy(250, 0)
	h.SetPolicy(place.NewFreqDecay())
	ctx := context.Background()
	// Land both on the slow tier.
	h.Put(ctx, "hot", payload(100), 2, 1)
	h.Put(ctx, "cold", payload(100), 2, 1)
	for i := 0; i < 8; i++ {
		if _, _, err := h.Get(ctx, "hot", 1); err != nil {
			t.Fatal(err)
		}
	}
	pr := h.NewPromoter(time.Hour)
	if n := pr.RunOnce(ctx); n == 0 {
		t.Fatal("promoter applied no moves")
	}
	if got := h.Where("hot"); got != 0 {
		t.Fatalf("hot tier = %d, want 0", got)
	}
	if got := h.Where("cold"); got != 2 {
		t.Fatalf("cold tier = %d, want 2 (untouched)", got)
	}
	// Data integrity across the background move.
	data, pl, err := h.Get(ctx, "hot", 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) != 100 || pl.TierIdx != 0 {
		t.Fatalf("post-promotion read: %d bytes from tier %d", len(data), pl.TierIdx)
	}
}

// A move whose key was deleted between View and apply must fail cleanly
// rather than resurrecting the key.
func TestApplyMoveAfterDelete(t *testing.T) {
	h := migHierarchy(0, 0)
	ctx := context.Background()
	h.Put(ctx, "k", payload(50), 2, 1)
	mv := h.Mover()
	if err := h.Delete("k"); err != nil {
		t.Fatal(err)
	}
	if _, err := mv.ApplyMove(place.Move{Key: "k", To: 0}); err == nil {
		t.Fatal("ApplyMove of deleted key succeeded")
	}
	if got := h.Where("k"); got != -1 {
		t.Fatalf("Where after failed apply = %d, want -1", got)
	}
}

// Default policy must stay byte-compatible: a hierarchy without SetPolicy
// behaves exactly as the pre-refactor LRU fall-through code.
func TestDefaultPolicyIsLRU(t *testing.T) {
	h := migHierarchy(0, 0)
	if h.Policy().Name() != "lru" {
		t.Fatalf("default policy = %q, want lru", h.Policy().Name())
	}
	h.SetPolicy(nil)
	if h.Policy().Name() != "lru" {
		t.Fatalf("SetPolicy(nil) policy = %q, want lru", h.Policy().Name())
	}
}

func TestPlacementViewSnapshot(t *testing.T) {
	h := migHierarchy(500, 0)
	ctx := context.Background()
	h.Put(ctx, "b", payload(100), 0, 1)
	h.Put(ctx, "a", payload(50), 2, 1)
	h.Get(ctx, "a", 1)
	v := h.PlacementView()
	if len(v.Tiers) != 3 || v.Tiers[0].Capacity != 500 || v.Tiers[0].Used != 100 {
		t.Fatalf("tiers = %+v", v.Tiers)
	}
	if len(v.Keys) != 2 || v.Keys[0].Key != "a" || v.Keys[1].Key != "b" {
		t.Fatalf("keys not sorted: %+v", v.Keys)
	}
	if v.Keys[0].Tier != 2 || v.Keys[0].Stats.Accesses != 1 {
		t.Fatalf("a candidate = %+v", v.Keys[0])
	}
	if v.Keys[1].Tier != 0 || v.Keys[1].Stats.Accesses != 0 {
		t.Fatalf("b candidate = %+v", v.Keys[1])
	}
}

// Accesses reports how many times key has been read. Get and GetRange both
// count — a ranged read of a footer or delta tile carries the same heat
// signal as a whole-value read, so the placement policies never under-count
// selectively-read products.
func (h *Hierarchy) Accesses(key string) int64 {
	return h.tracker.Stats(key).Accesses
}
