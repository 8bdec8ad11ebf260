package storage_test

import (
	"context"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro/internal/place"
	"repro/internal/storage"
)

// zipfReplay is one policy's run over the shared Zipfian read trace.
type zipfReplay struct {
	hitRate        float64 // fraction of measured reads served by the fast tier
	modeledSeconds float64 // cost-model read time over the measured reads
	moves          int     // background promotions and demotions applied
}

// replayZipf writes 160 keys, key i of size(i) bytes, in a shuffled order
// onto a two-tier hierarchy whose fast tier holds 10% of their bytes, then
// issues 8,000 Zipf(s=1.1) reads over the keys, with hotness scattered
// independently of key, size and write order. When adaptive is set a
// promoter cycles once every 250 reads. Only the second half of the reads
// is measured, after the adaptive policy has had a fair chance to converge.
func replayZipf(t *testing.T, pol place.Policy, adaptive bool, size func(i int) int) zipfReplay {
	t.Helper()
	const (
		nKeys      = 160
		reads      = 8000
		cycleEvery = 250
	)
	ctx := context.Background()
	rng := rand.New(rand.NewSource(42))
	rank := rng.Perm(nKeys)
	order := rng.Perm(nKeys)
	z := rand.NewZipf(rng, 1.1, 1, nKeys-1)

	total := 0
	for i := 0; i < nKeys; i++ {
		total += size(i)
	}
	h := storage.TitanTwoTier(int64(total / 10))
	// Byte-exact capacity: the envelope's framing would blur the 10% sizing.
	h.SetEnvelopeBlock(-1)
	h.SetPolicy(pol)
	key := func(i int) string { return fmt.Sprintf("prod/%03d", i) }
	for _, i := range order {
		if _, err := h.Put(ctx, key(i), make([]byte, size(i)), 0, 1); err != nil {
			t.Fatal(err)
		}
	}
	var pr *place.Promoter
	if adaptive {
		pr = h.NewPromoter(time.Hour) // driven by RunOnce, never started
	}
	var res zipfReplay
	hits := 0
	for i := 0; i < reads; i++ {
		k := key(rank[z.Uint64()])
		_, pl, err := h.Get(ctx, k, 1)
		if err != nil {
			t.Fatalf("read %d (%s): %v", i, k, err)
		}
		if i >= reads/2 {
			if pl.TierIdx == 0 {
				hits++
			}
			res.modeledSeconds += pl.Cost.Seconds
		}
		if pr != nil && (i+1)%cycleEvery == 0 {
			res.moves += pr.RunOnce(ctx)
		}
	}
	res.hitRate = float64(hits) / float64(reads-reads/2)
	return res
}

// TestAdaptivePlacementBeatsStaticOnZipf is the acceptance check for
// workload-adaptive placement: on a skewed read trace against a fast tier
// sized to a tenth of the working set's bytes, the freq policy must serve
// at least 1.5x as many reads from the fast tier as static LRU placement,
// and the gap must show up in modeled read time. The mixed-size input is
// the one that separates ranking by frequency from ranking by modeled
// seconds saved: the fast tier's capacity is in bytes, so promoting one
// bulky product displaces several small hot ones.
func TestAdaptivePlacementBeatsStaticOnZipf(t *testing.T) {
	inputs := []struct {
		name string
		size func(i int) int
	}{
		{"2 KiB keys", func(int) int { return 2 << 10 }},
		{"one key in four 16 KiB", func(i int) int {
			if i%4 == 0 {
				return 16 << 10
			}
			return 2 << 10
		}},
	}
	for _, in := range inputs {
		static := replayZipf(t, place.LRU{}, false, in.size)
		adaptive := replayZipf(t, place.NewFreqDecay(), true, in.size)
		t.Logf("%s: lru: hit rate %.1f%%, modeled %.3gs", in.name, 100*static.hitRate, static.modeledSeconds)
		t.Logf("%s: freq: hit rate %.1f%%, modeled %.3gs, %d moves", in.name, 100*adaptive.hitRate, adaptive.modeledSeconds, adaptive.moves)
		if static.moves != 0 {
			t.Errorf("%s: static lru applied %d background moves, want 0", in.name, static.moves)
		}
		if adaptive.hitRate < 1.5*static.hitRate {
			t.Errorf("%s: freq hit rate %.3f < 1.5 x static %.3f", in.name, adaptive.hitRate, static.hitRate)
		}
		if adaptive.moves == 0 {
			t.Errorf("%s: freq applied no background moves", in.name)
		}
		if adaptive.modeledSeconds >= static.modeledSeconds {
			t.Errorf("%s: freq modeled read time %gs not below static %gs", in.name, adaptive.modeledSeconds, static.modeledSeconds)
		}
	}
}
