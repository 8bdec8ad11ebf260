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

// replayZipf writes 160 keys of 2 KiB each in a shuffled order onto a
// two-tier hierarchy whose fast tier holds 10% of them, then issues 8,000
// Zipf(s=1.1) reads over the keys, with hotness scattered independently of
// both key and write order. When adaptive is set a promoter cycles once
// every 250 reads. Only the second half of the reads is measured, after
// the adaptive policies have had a fair chance to converge.
func replayZipf(t *testing.T, pol place.Policy, adaptive bool) zipfReplay {
	t.Helper()
	const (
		nKeys      = 160
		size       = 2048
		reads      = 8000
		cycleEvery = 250
	)
	ctx := context.Background()
	rng := rand.New(rand.NewSource(42))
	rank := rng.Perm(nKeys)
	order := rng.Perm(nKeys)
	z := rand.NewZipf(rng, 1.1, 1, nKeys-1)

	h := storage.TitanTwoTier(nKeys * size / 10)
	// Byte-exact capacity: the envelope's framing would blur the 10% sizing.
	h.SetEnvelopeBlock(-1)
	h.SetPolicy(pol)
	key := func(i int) string { return fmt.Sprintf("prod/%03d", i) }
	for _, i := range order {
		if _, err := h.Put(ctx, key(i), make([]byte, size), 0, 1); err != nil {
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
// sized to a tenth of the working set, the best read-driven policy must
// serve at least 1.5x as many reads from the fast tier as static LRU
// placement, and the gap must show up in modeled read time.
func TestAdaptivePlacementBeatsStaticOnZipf(t *testing.T) {
	static := replayZipf(t, place.LRU{}, false)
	if static.moves != 0 {
		t.Errorf("static lru applied %d background moves, want 0", static.moves)
	}
	var best zipfReplay
	bestName := ""
	for _, pol := range []place.Policy{place.NewFreqDecay(), place.NewCostAware()} {
		r := replayZipf(t, pol, true)
		t.Logf("%s: hit rate %.1f%%, modeled %.3gs, %d moves", pol.Name(), 100*r.hitRate, r.modeledSeconds, r.moves)
		if bestName == "" || r.hitRate > best.hitRate {
			best, bestName = r, pol.Name()
		}
	}
	t.Logf("lru: hit rate %.1f%%, modeled %.3gs", 100*static.hitRate, static.modeledSeconds)
	if best.hitRate < 1.5*static.hitRate {
		t.Errorf("best adaptive %s hit rate %.3f < 1.5 x static %.3f", bestName, best.hitRate, static.hitRate)
	}
	if best.moves == 0 {
		t.Errorf("adaptive winner %s applied no background moves", bestName)
	}
	if best.modeledSeconds >= static.modeledSeconds {
		t.Errorf("adaptive %s modeled read time %gs not below static %gs", bestName, best.modeledSeconds, static.modeledSeconds)
	}
}
