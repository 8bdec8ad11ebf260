package storage

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/obs"
)

func payload(n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i * 31)
	}
	return b
}

func TestMemBackendRoundTrip(t *testing.T) {
	b := NewMemBackend()
	if err := b.Put("a", payload(100)); err != nil {
		t.Fatal(err)
	}
	got, err := b.Get("a")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload(100)) {
		t.Fatal("data mismatch")
	}
	if b.Used() != 100 {
		t.Fatalf("Used = %d, want 100", b.Used())
	}
}

func TestMemBackendOverwriteAccounting(t *testing.T) {
	b := NewMemBackend()
	b.Put("a", payload(100))
	b.Put("a", payload(40))
	if b.Used() != 40 {
		t.Fatalf("Used after overwrite = %d, want 40", b.Used())
	}
	b.Delete("a")
	if b.Used() != 0 {
		t.Fatalf("Used after delete = %d, want 0", b.Used())
	}
}

func TestMemBackendGetMissing(t *testing.T) {
	b := NewMemBackend()
	if _, err := b.Get("nope"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Get missing: %v, want ErrNotFound", err)
	}
}

func TestMemBackendIsolation(t *testing.T) {
	b := NewMemBackend()
	data := payload(10)
	b.Put("a", data)
	data[0] = 0xFF
	got, _ := b.Get("a")
	if got[0] == 0xFF {
		t.Fatal("backend aliases caller's put buffer")
	}
	got[1] = 0xEE
	got2, _ := b.Get("a")
	if got2[1] == 0xEE {
		t.Fatal("backend aliases caller's get buffer")
	}
}

func TestMemBackendConcurrent(t *testing.T) {
	b := NewMemBackend()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				key := fmt.Sprintf("k%d-%d", g, i)
				b.Put(key, payload(i+1))
				if _, err := b.Get(key); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if got, want := len(b.Keys()), 800; got != want {
		t.Fatalf("keys = %d, want %d", got, want)
	}
}

func TestHierarchyPlacementPreferred(t *testing.T) {
	h := TitanTwoTier(0)
	p, err := h.Put(context.Background(), "base", payload(1000), 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if p.TierName != "tmpfs" || p.TierIdx != 0 {
		t.Fatalf("placed on %s (tier %d), want tmpfs", p.TierName, p.TierIdx)
	}
	if len(p.Bypassed) != 0 {
		t.Fatalf("bypassed %v, want none", p.Bypassed)
	}
}

func TestHierarchyBypassOnCapacity(t *testing.T) {
	h := TitanTwoTier(500) // tmpfs capped at 500 bytes
	h.SetEnvelopeBlock(-1) // byte-exact capacity expectations below
	if _, err := h.Put(context.Background(), "small", payload(400), 0, 1); err != nil {
		t.Fatal(err)
	}
	p, err := h.Put(context.Background(), "big", payload(400), 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if p.TierName != "lustre" {
		t.Fatalf("placed on %s, want lustre (tmpfs full)", p.TierName)
	}
	if len(p.Bypassed) != 1 || p.Bypassed[0] != "tmpfs" {
		t.Fatalf("Bypassed = %v, want [tmpfs]", p.Bypassed)
	}
	// The bypassed tier must not have grown.
	if used := h.Tier(0).backend().Used(); used != 400 {
		t.Fatalf("tmpfs used %d, want 400", used)
	}
}

func TestHierarchyAllTiersFull(t *testing.T) {
	h := NewHierarchy(
		&Tier{Name: "a", Capacity: 10, ReadBandwidth: 1, WriteBandwidth: 1},
		&Tier{Name: "b", Capacity: 10, ReadBandwidth: 1, WriteBandwidth: 1},
	)
	if _, err := h.Put(context.Background(), "x", payload(100), 0, 1); !errors.Is(err, ErrCapacity) {
		t.Fatalf("err = %v, want ErrCapacity", err)
	}
}

func TestHierarchyGetFindsAcrossTiers(t *testing.T) {
	h := TitanTwoTier(0)
	h.Put(context.Background(), "fast", payload(10), 0, 1)
	h.Put(context.Background(), "slow", payload(10), 1, 1)
	data, p, err := h.Get(context.Background(), "slow", 1)
	if err != nil {
		t.Fatal(err)
	}
	if p.TierName != "lustre" {
		t.Fatalf("found on %s, want lustre", p.TierName)
	}
	if !bytes.Equal(data, payload(10)) {
		t.Fatal("data mismatch")
	}
	if h.Where("fast") != 0 || h.Where("slow") != 1 || h.Where("none") != -1 {
		t.Fatal("Where reported wrong tiers")
	}
}

// TestTierCountersTrackTraffic checks the per-tier traffic counters
// (canopus_storage_<tier>_{read,write}_{bytes,ops}_total) against the
// operations a hierarchy served: payload bytes and one op per call, billed
// to the tier that holds the key. The tier name is private to this test.
func TestTierCountersTrackTraffic(t *testing.T) {
	want := map[string]int64{
		"canopus_storage_counted_write_bytes_total": 100,
		"canopus_storage_counted_write_ops_total":   1,
		"canopus_storage_counted_read_bytes_total":  130,
		"canopus_storage_counted_read_ops_total":    2,
	}
	before := make(map[string]int64)
	for name := range want {
		before[name] = obs.NewCounter(name).Value()
	}
	ctx := context.Background()
	h := NewHierarchy(&Tier{Name: "counted", ReadBandwidth: 1, WriteBandwidth: 1})
	if _, err := h.Put(ctx, "k", payload(100), 0, 1); err != nil {
		t.Fatal(err)
	}
	if _, _, err := h.Get(ctx, "k", 1); err != nil {
		t.Fatal(err)
	}
	if _, _, err := h.GetRange(ctx, "k", 10, 30, 1); err != nil {
		t.Fatal(err)
	}
	for name, n := range want {
		if got := obs.NewCounter(name).Value() - before[name]; got != n {
			t.Errorf("%s advanced %d, want %d", name, got, n)
		}
	}
}

func TestHierarchyGetMissing(t *testing.T) {
	h := TitanTwoTier(0)
	if _, _, err := h.Get(context.Background(), "ghost", 1); !errors.Is(err, ErrNotFound) {
		t.Fatalf("err = %v, want ErrNotFound", err)
	}
}

func TestHierarchyDelete(t *testing.T) {
	h := TitanTwoTier(0)
	h.Put(context.Background(), "a", payload(10), 0, 1)
	if err := h.Delete("a"); err != nil {
		t.Fatal(err)
	}
	if _, _, err := h.Get(context.Background(), "a", 1); !errors.Is(err, ErrNotFound) {
		t.Fatal("key still present after delete")
	}
	if err := h.Delete("a"); err != nil {
		t.Fatal("double delete errored")
	}
}

func TestHierarchyPrefClamping(t *testing.T) {
	h := TitanTwoTier(0)
	p, err := h.Put(context.Background(), "neg", payload(1), -5, 1)
	if err != nil || p.TierIdx != 0 {
		t.Fatalf("pref=-5: tier %d err %v", p.TierIdx, err)
	}
	p, err = h.Put(context.Background(), "big", payload(1), 99, 1)
	if err != nil || p.TierIdx != 1 {
		t.Fatalf("pref=99: tier %d err %v", p.TierIdx, err)
	}
}

func TestCostModel(t *testing.T) {
	tier := &Tier{Name: "t", ReadBandwidth: 100, WriteBandwidth: 50, LatencySeconds: 1}
	c := tier.writeCost(100, 1)
	if math.Abs(c.Seconds-3) > 1e-12 { // 1 + 100/50
		t.Fatalf("write cost %g, want 3", c.Seconds)
	}
	c = tier.writeCost(100, 4)         // 4 writers share bandwidth
	if math.Abs(c.Seconds-9) > 1e-12 { // 1 + 100*4/50
		t.Fatalf("4-writer cost %g, want 9", c.Seconds)
	}
	c = tier.readCost(100, 1)
	if math.Abs(c.Seconds-2) > 1e-12 { // 1 + 100/100
		t.Fatalf("read cost %g, want 2", c.Seconds)
	}
	c = tier.readCost(0, 0) // degenerate inputs clamp
	if c.Seconds != 1 {
		t.Fatalf("zero-byte read cost %g, want latency 1", c.Seconds)
	}
}

func TestCostAdd(t *testing.T) {
	var c Cost
	c.Add(Cost{Seconds: 1, Bytes: 10})
	c.Add(Cost{Seconds: 2, Bytes: 20})
	if c.Seconds != 3 || c.Bytes != 30 {
		t.Fatalf("Cost = %+v", c)
	}
}

func TestTitanTierGapIsLarge(t *testing.T) {
	// The whole premise of Canopus retrieval: the fast tier is much
	// faster. Guard the preset so experiments stay meaningful.
	h := TitanTwoTier(0)
	fast := h.Tier(0).readCost(1<<20, 1).Seconds
	slow := h.Tier(1).readCost(1<<20, 1).Seconds
	if slow < 5*fast {
		t.Fatalf("tier gap too small: fast %g s, slow %g s", fast, slow)
	}
}

func TestDeepHierarchyOrdering(t *testing.T) {
	h := DeepHierarchy(1<<20, 1<<24)
	if h.NumTiers() != 4 {
		t.Fatalf("NumTiers = %d, want 4", h.NumTiers())
	}
	prev := 0.0
	for i := 0; i < h.NumTiers(); i++ {
		c := h.Tier(i).readCost(1<<20, 1).Seconds
		if c < prev {
			t.Fatalf("tier %d faster than tier %d", i, i-1)
		}
		prev = c
	}
}

// TestQuickCapacityNeverExceeded is the property test for the placement
// invariant: no tier ever holds more than its capacity.
func TestQuickCapacityNeverExceeded(t *testing.T) {
	f := func(sizes []uint16) bool {
		h := NewHierarchy(
			&Tier{Name: "a", Capacity: 4096, ReadBandwidth: 1e9, WriteBandwidth: 1e9},
			&Tier{Name: "b", Capacity: 65536, ReadBandwidth: 1e8, WriteBandwidth: 1e8},
			&Tier{Name: "c", ReadBandwidth: 1e7, WriteBandwidth: 1e7},
		)
		for i, s := range sizes {
			h.Put(context.Background(), fmt.Sprintf("k%d", i), payload(int(s)), 0, 1)
		}
		for i := 0; i < h.NumTiers(); i++ {
			tier := h.Tier(i)
			if tier.Capacity > 0 && tier.backend().Used() > tier.Capacity {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestFileBackendRoundTrip(t *testing.T) {
	dir := t.TempDir()
	b, err := NewFileBackend(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Put("plain-key", payload(64)); err != nil {
		t.Fatal(err)
	}
	if err := b.Put("weird/key with spaces", payload(32)); err != nil {
		t.Fatal(err)
	}
	got, err := b.Get("weird/key with spaces")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload(32)) {
		t.Fatal("data mismatch for escaped key")
	}
	if b.Used() != 96 {
		t.Fatalf("Used = %d, want 96", b.Used())
	}
	keys := b.Keys()
	if len(keys) != 2 {
		t.Fatalf("Keys = %v", keys)
	}
	// Reopen: accounting must survive.
	b2, err := NewFileBackend(dir)
	if err != nil {
		t.Fatal(err)
	}
	if b2.Used() != 96 {
		t.Fatalf("reopened Used = %d, want 96", b2.Used())
	}
	if err := b2.Delete("plain-key"); err != nil {
		t.Fatal(err)
	}
	if b2.Used() != 32 {
		t.Fatalf("Used after delete = %d, want 32", b2.Used())
	}
	if _, err := b2.Get("plain-key"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("err = %v, want ErrNotFound", err)
	}
}

func TestFileBackendKeyEscaping(t *testing.T) {
	for _, key := range []string{"a", "x-already", "with/slash", "..", "", "ünïcode"} {
		enc := encodeKey(key)
		if dec := decodeKey(enc); dec != key {
			t.Errorf("key %q round-tripped to %q via %q", key, dec, enc)
		}
	}
}
