package core

import (
	"context"
	"slices"
	"testing"
	"time"

	"repro/internal/place"
)

// A finest-level container the background promoter pulls up to the fast
// tier still reads back bit-identically.
func TestPromotedLevelReadsBack(t *testing.T) {
	aio := newIO()
	ctx := context.Background()
	ds := testDataset("dpot", 24)
	if _, err := Write(ctx, aio, ds, Options{Levels: 3}); err != nil {
		t.Fatal(err)
	}
	r, err := OpenReader(ctx, aio, "dpot")
	if err != nil {
		t.Fatal(err)
	}
	key := levelKey("dpot", 0)
	if w := aio.H.Where(key); w != 1 {
		t.Fatalf("finest container on tier %d before promotion, want 1", w)
	}

	// Heat the finest level, then run a real adaptive cycle.
	aio.H.SetPolicy(place.NewFreqDecay())
	var before []float64
	for i := 0; i < 6; i++ {
		v, err := r.Retrieve(ctx, 0)
		if err != nil {
			t.Fatal(err)
		}
		before = v.Data
	}
	pr := aio.H.NewPromoter(time.Hour)
	if n := pr.RunOnce(ctx); n == 0 {
		t.Fatal("promoter applied no moves")
	}
	if w := aio.H.Where(key); w != 0 {
		t.Fatalf("finest container on tier %d after promotion, want 0", w)
	}

	v, err := r.Retrieve(ctx, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(v.Data, before) {
		t.Fatal("promoted level reads back different values")
	}
}
