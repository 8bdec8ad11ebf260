package place

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"
)

// fakeMover records the promoter's moves: every planned move is applied
// exactly once.
type fakeMover struct {
	mu       sync.Mutex
	view     View
	applied  []Move
	applyErr map[string]error
}

func (f *fakeMover) PlacementView() View {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.view
}

func (f *fakeMover) ApplyMove(m Move) (int64, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if err := f.applyErr[m.Key]; err != nil {
		return 0, err
	}
	f.applied = append(f.applied, m)
	// Mark the key moved so the next View reflects it.
	for i := range f.view.Keys {
		if f.view.Keys[i].Key == m.Key {
			f.view.Keys[i].Tier = m.To
		}
	}
	return 10, nil
}

func hotColdView() View {
	return View{
		Tiers: []TierInfo{{Index: 0, Capacity: 100}, {Index: 1}},
		Keys: []Candidate{
			{Key: "hot", Tier: 1, Stored: 10, Stats: Stats{Freq: 5, LastUsed: 50}},
			{Key: "lukewarm", Tier: 1, Stored: 10, Stats: Stats{Freq: 1, LastUsed: 40}},
		},
	}
}

func TestRunOnceAppliesPolicyMoves(t *testing.T) {
	fm := &fakeMover{view: hotColdView()}
	pr := NewPromoter(fm, NewFreqDecay(), 0)
	n := pr.RunOnce(context.Background())
	if n != 2 {
		t.Fatalf("applied = %d, want 2", n)
	}
	// Hot-first order.
	if fm.applied[0].Key != "hot" || fm.applied[0].To != 0 {
		t.Fatalf("applied = %v, want hot first", fm.applied)
	}
	// A second cycle over the converged view plans nothing.
	if n := pr.RunOnce(context.Background()); n != 0 {
		t.Fatalf("second cycle applied %d moves, want 0", n)
	}
}

func TestRunOnceToleratesApplyErrors(t *testing.T) {
	fm := &fakeMover{
		view:     hotColdView(),
		applyErr: map[string]error{"hot": errors.New("gone")},
	}
	pr := NewPromoter(fm, NewFreqDecay(), 0)
	if n := pr.RunOnce(context.Background()); n != 1 {
		t.Fatalf("applied = %d, want 1 (hot fails, lukewarm lands)", n)
	}
	if len(fm.applied) != 1 || fm.applied[0].Key != "lukewarm" {
		t.Fatalf("applied = %v, want [lukewarm]", fm.applied)
	}
}

func TestPromoterKickDrivesCycle(t *testing.T) {
	fm := &fakeMover{view: hotColdView()}
	// Hour-long interval: only Kick can trigger the cycle in test time.
	pr := NewPromoter(fm, NewFreqDecay(), time.Hour)
	pr.Start()
	defer pr.Stop()
	pr.Kick()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		fm.mu.Lock()
		n := len(fm.applied)
		fm.mu.Unlock()
		if n == 2 {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("kicked promoter never applied the planned moves")
}

// slowMover stretches every ApplyMove so a cycle spans real time, letting
// the interrupt test observe Stop landing mid-cycle.
type slowMover struct {
	fakeMover
	delay time.Duration
}

func (s *slowMover) ApplyMove(m Move) (int64, error) {
	time.Sleep(s.delay)
	return s.fakeMover.ApplyMove(m)
}

// slabPolicy plans a fixed batch of promotions regardless of the view.
type slabPolicy struct {
	LRU
	moves []Move
}

func (slabPolicy) Name() string          { return "slab" }
func (p slabPolicy) Promote(View) []Move { return append([]Move(nil), p.moves...) }

func TestPromoterStopInterruptsCycle(t *testing.T) {
	// 200 planned moves at 10ms each: a full cycle takes ~2s. Stop must
	// come back in roughly one move's worth of time, because the loop's
	// context is cancelled before Stop waits and RunOnce checks it
	// between moves.
	const (
		planned = 200
		perMove = 10 * time.Millisecond
	)
	moves := make([]Move, planned)
	for i := range moves {
		moves[i] = Move{Key: "k" + string(rune('a'+i%26)), To: 0}
	}
	sm := &slowMover{delay: perMove}
	pr := NewPromoter(sm, slabPolicy{moves: moves}, time.Hour)
	pr.Start()
	pr.Kick()

	// Wait until the cycle is demonstrably in flight.
	deadline := time.Now().Add(5 * time.Second)
	for {
		sm.mu.Lock()
		n := len(sm.applied)
		sm.mu.Unlock()
		if n >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("cycle never started applying moves")
		}
		time.Sleep(time.Millisecond)
	}

	start := time.Now()
	pr.Stop()
	elapsed := time.Since(start)

	sm.mu.Lock()
	applied := len(sm.applied)
	sm.mu.Unlock()
	if applied >= planned {
		t.Fatalf("cycle ran to completion (%d moves) despite Stop", applied)
	}
	// Generous bound: one in-flight move plus scheduling slack, still far
	// below the ~2s a full cycle would take.
	if elapsed > 500*time.Millisecond {
		t.Fatalf("Stop took %v waiting out the cycle; want prompt interrupt", elapsed)
	}
}

func TestPromoterStopLifecycle(t *testing.T) {
	fm := &fakeMover{view: View{}}
	pr := NewPromoter(fm, LRU{}, time.Millisecond)
	// Stop before Start: must not hang, and Start afterwards is a no-op.
	pr.Stop()
	pr.Start()
	pr.Stop()

	pr2 := NewPromoter(fm, LRU{}, time.Millisecond)
	pr2.Start()
	pr2.Start() // idempotent
	time.Sleep(5 * time.Millisecond)
	pr2.Stop()
	pr2.Stop() // idempotent
}
