package place

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
)

func TestTrackerTouchWroteBump(t *testing.T) {
	tr := NewTracker()
	tr.Touch("a")
	tr.Touch("a")
	tr.Touch("b")
	if s := tr.Stats("a"); s.Accesses != 2 || s.LastUsed != 2 {
		t.Fatalf("a stats = %+v, want 2 accesses, lastUsed 2", s)
	}
	if s := tr.Stats("b"); s.Accesses != 1 || s.LastUsed != 3 {
		t.Fatalf("b stats = %+v, want 1 access, lastUsed 3", s)
	}
	// Bump refreshes recency without counting an access.
	tr.Bump("a")
	if s := tr.Stats("a"); s.Accesses != 2 || s.LastUsed != 4 {
		t.Fatalf("after bump: %+v, want accesses 2, lastUsed 4", s)
	}
	// Wrote resets history: a fresh value carries no read heat.
	tr.Wrote("a")
	if s := tr.Stats("a"); s.Accesses != 0 || s.Freq != 0 || s.LastUsed != 5 {
		t.Fatalf("after wrote: %+v, want reset with lastUsed 5", s)
	}
	tr.Forget("b")
	if s := tr.Stats("b"); !reflect.DeepEqual(s, Stats{}) {
		t.Fatalf("forgotten key stats = %+v, want zero", s)
	}
	if tr.Clock() != 5 {
		t.Fatalf("clock = %d, want 5", tr.Clock())
	}
}

func TestTrackerFreqDecays(t *testing.T) {
	tr := NewTracker()
	tr.SetHalfLife(4)
	tr.Touch("hot")
	f0 := tr.Stats("hot").Freq
	if f0 != 1 {
		t.Fatalf("freq after one touch = %g, want 1", f0)
	}
	// Advance the clock by touching other keys: hot's frequency must decay.
	for i := 0; i < 4; i++ {
		tr.Touch("other")
	}
	f1 := tr.Stats("hot").Freq
	if f1 >= f0 || f1 <= 0 {
		t.Fatalf("freq did not decay: %g -> %g", f0, f1)
	}
	// One half-life elapsed: within rounding, half the weight.
	if f1 < 0.4 || f1 > 0.6 {
		t.Fatalf("freq after one half-life = %g, want ~0.5", f1)
	}
	// Re-touching beats decayed-out keys.
	tr.Touch("hot")
	if f := tr.Stats("hot").Freq; f <= tr.Stats("other").Freq/4 {
		t.Fatalf("retouched freq %g unexpectedly cold vs other %g", f, tr.Stats("other").Freq)
	}
}

func TestLRUVictim(t *testing.T) {
	cands := []Candidate{
		{Key: "a", Stats: Stats{LastUsed: 5}},
		{Key: "b", Stats: Stats{LastUsed: 2}},
		{Key: "c", Stats: Stats{LastUsed: 2}},
	}
	// Strict minimum on key-sorted input: ties break to the first
	// (lexicographically smallest) — the historical eviction order.
	if v := (LRU{}).Victim(0, cands); v != "b" {
		t.Fatalf("victim = %q, want b", v)
	}
	if v := (LRU{}).Victim(0, nil); v != "" {
		t.Fatalf("victim of empty = %q, want empty", v)
	}
}

func TestFreqVictimPicksColdest(t *testing.T) {
	cands := []Candidate{
		{Key: "a", Stats: Stats{Freq: 3, LastUsed: 9}},
		{Key: "b", Stats: Stats{Freq: 0.5, LastUsed: 8}},
		{Key: "c", Stats: Stats{Freq: 0.5, LastUsed: 2}},
	}
	// Equal frequency: older recency loses.
	if v := NewFreqDecay().Victim(0, cands); v != "c" {
		t.Fatalf("victim = %q, want c", v)
	}
}

// twoTierView builds a view with a bounded fast tier and an unbounded slow
// one, with the given resident/outsider candidates.
func twoTierView(fastCap, fastUsed int64, keys ...Candidate) View {
	return View{
		Tiers: []TierInfo{{Index: 0, Capacity: fastCap, Used: fastUsed}, {Index: 1}},
		Keys:  keys,
	}
}

func TestFreqPromoteFillsFreeSpace(t *testing.T) {
	v := twoTierView(100, 40,
		Candidate{Key: "cold", Tier: 1, Stored: 50, Stats: Stats{Freq: 0.1}},
		Candidate{Key: "hot", Tier: 1, Stored: 50, Stats: Stats{Freq: 5}},
		Candidate{Key: "res", Tier: 0, Stored: 40, Stats: Stats{Freq: 1}},
	)
	moves := NewFreqDecay().Promote(v)
	if len(moves) != 1 || moves[0] != (Move{Key: "hot", To: 0}) {
		t.Fatalf("moves = %v, want [{hot 0}]", moves)
	}
}

func TestFreqPromoteDisplacesWithHysteresis(t *testing.T) {
	// Fast tier full. Outsider must out-score the displaced resident by
	// the hysteresis factor.
	mk := func(outFreq, resFreq float64) []Move {
		v := twoTierView(100, 100,
			Candidate{Key: "out", Tier: 1, Stored: 50, Stats: Stats{Freq: outFreq}},
			Candidate{Key: "res", Tier: 0, Stored: 100, Stats: Stats{Freq: resFreq}},
		)
		return NewFreqDecay().Promote(v)
	}
	if moves := mk(5, 1); len(moves) != 1 || moves[0].Key != "out" {
		t.Fatalf("hot outsider not promoted: %v", moves)
	}
	// 1.1 vs 1.0 is inside the default 1.25 hysteresis: no thrash.
	if moves := mk(1.1, 1); len(moves) != 0 {
		t.Fatalf("marginal outsider promoted despite hysteresis: %v", moves)
	}
	// Zero-heat outsiders never move.
	if moves := mk(0, 0); len(moves) != 0 {
		t.Fatalf("cold outsider promoted: %v", moves)
	}
}

func TestPromoteRespectsMaxMoves(t *testing.T) {
	var keys []Candidate
	for i := 0; i < maxMoves+2; i++ {
		keys = append(keys, Candidate{Key: fmt.Sprintf("k%02d", i), Tier: 1, Stored: 10, Stats: Stats{Freq: 2}})
	}
	v := twoTierView(1000, 0, keys...)
	if moves := NewFreqDecay().Promote(v); len(moves) != maxMoves {
		t.Fatalf("moves = %v, want %d (maxMoves)", moves, maxMoves)
	}
}

func TestDemoteOnCapacityPressure(t *testing.T) {
	// 96% full: above the default 0.95 high watermark; demote coldest
	// until below 0.85.
	v := twoTierView(1000, 960,
		Candidate{Key: "cold", Tier: 0, Stored: 200, Stats: Stats{Freq: 0.1}},
		Candidate{Key: "hot", Tier: 0, Stored: 760, Stats: Stats{Freq: 9}},
	)
	moves := NewFreqDecay().Demote(v)
	if len(moves) != 1 || moves[0] != (Move{Key: "cold", To: 1}) {
		t.Fatalf("moves = %v, want [{cold 1}]", moves)
	}
	// Under the watermark: nothing moves.
	v.Tiers[0].Used = 800
	if moves := NewFreqDecay().Demote(v); len(moves) != 0 {
		t.Fatalf("demotion below high watermark: %v", moves)
	}
}

func TestLRUIsStatic(t *testing.T) {
	v := twoTierView(100, 0,
		Candidate{Key: "hot", Tier: 1, Stored: 10, Stats: Stats{Freq: 100, Accesses: 100}},
	)
	if m := (LRU{}).Promote(v); m != nil {
		t.Fatalf("LRU promoted: %v", m)
	}
	if m := (LRU{}).Demote(v); m != nil {
		t.Fatalf("LRU demoted: %v", m)
	}
}

func TestByName(t *testing.T) {
	for _, name := range Names() {
		p, err := ByName(name)
		if err != nil {
			t.Fatalf("ByName(%q): %v", name, err)
		}
		if p.Name() != name {
			t.Fatalf("ByName(%q).Name() = %q", name, p.Name())
		}
	}
	if p, err := ByName(""); err != nil || p.Name() != "lru" {
		t.Fatalf("ByName(\"\") = %v, %v; want lru default", p, err)
	}
	for _, name := range []string{"bogus", "cost"} {
		_, err := ByName(name)
		if err == nil {
			t.Fatalf("ByName(%q) succeeded", name)
		}
		if !strings.HasSuffix(err.Error(), "(want lru, freq)") {
			t.Fatalf("ByName(%q) error %q does not name the policies lru, freq", name, err)
		}
	}
}

// SetHalfLife overrides the decay half-life in logical ticks (values < 1
// restore the default). Tests with short workloads shrink it so the
// hot set converges within the run.
func (tr *Tracker) SetHalfLife(ticks float64) {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	if ticks < 1 {
		ticks = DefaultHalfLife
	}
	tr.halfLife = ticks
}

// Clock reports the current logical clock.
func (tr *Tracker) Clock() int64 {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	return tr.clock
}
