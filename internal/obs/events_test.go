package obs_test

import (
	"strconv"
	"sync"
	"testing"

	"repro/internal/obs"
)

func TestEventRingBoundsAndFilters(t *testing.T) {
	obs.ResetEvents()
	obs.SetEventRetention(8)
	defer obs.SetEventRetention(0)

	alpha := obs.RegisterEventType("obs_test_alpha")
	beta := obs.RegisterEventType("obs_test_beta")
	start := obs.LastEventSeq()
	for i := 0; i < 10; i++ {
		alpha.Emit("i", strconv.Itoa(i))
	}
	beta.Emit("k", "v")

	got := obs.Events(nil, start)
	if len(got) != 8 {
		t.Fatalf("retained %d events, want 8 (the retention bound)", len(got))
	}
	for i := 1; i < len(got); i++ {
		if got[i].Seq != got[i-1].Seq+1 {
			t.Errorf("events not oldest-first contiguous: seq %d follows %d", got[i].Seq, got[i-1].Seq)
		}
	}
	if last := got[len(got)-1]; last.Type != "obs_test_beta" || last.Attrs["k"] != "v" {
		t.Errorf("newest retained event = %+v, want the beta emit", last)
	}
	if first := got[0]; first.Type != "obs_test_alpha" || first.Attrs["i"] != "3" {
		t.Errorf("oldest retained event = %+v, want alpha i=3 (i=0..2 aged out)", first)
	}

	// Type filter.
	bs := obs.Events([]string{"obs_test_beta"}, start)
	if len(bs) != 1 || bs[0].Type != "obs_test_beta" {
		t.Errorf("type filter returned %+v, want exactly the one beta event", bs)
	}

	// Since cursor: everything up to LastEventSeq is excluded; the cursor
	// one before it yields exactly the newest event.
	last := obs.LastEventSeq()
	if n := len(obs.Events(nil, last)); n != 0 {
		t.Errorf("since=last returned %d events, want 0", n)
	}
	if tail := obs.Events(nil, last-1); len(tail) != 1 || tail[0].Seq != last {
		t.Errorf("since=last-1 returned %+v, want just seq %d", tail, last)
	}
}

func TestSetEventRetentionKeepsNewest(t *testing.T) {
	obs.ResetEvents()
	obs.SetEventRetention(0)
	et := obs.RegisterEventType("obs_test_retention")
	start := obs.LastEventSeq()
	for i := 0; i < 10; i++ {
		et.Emit("i", strconv.Itoa(i))
	}
	obs.SetEventRetention(4)
	defer obs.SetEventRetention(0)
	got := obs.Events(nil, start)
	if len(got) != 4 {
		t.Fatalf("after shrink retained %d events, want 4", len(got))
	}
	if got[0].Attrs["i"] != "6" || got[3].Attrs["i"] != "9" {
		t.Errorf("shrink kept %v..%v, want the newest four (6..9)", got[0].Attrs, got[3].Attrs)
	}
	// The ring must keep wrapping correctly at the new bound.
	for i := 10; i < 20; i++ {
		et.Emit("i", strconv.Itoa(i))
	}
	got = obs.Events(nil, start)
	if len(got) != 4 || got[3].Attrs["i"] != "19" {
		t.Errorf("post-shrink emits retained %d events ending %v, want 4 ending i=19", len(got), got[len(got)-1].Attrs)
	}
}

// TestGrowRetentionAfterWrapKeepsOrder: growing the bound of a ring that has
// wrapped used to leave its write cursor mid-ring, so once the larger ring
// filled, new events overwrote a middle slot and a snapshot came back out of
// sequence.
func TestGrowRetentionAfterWrapKeepsOrder(t *testing.T) {
	obs.ResetEvents()
	obs.SetEventRetention(8)
	defer obs.SetEventRetention(0)
	et := obs.RegisterEventType("obs_test_grow")
	emit := func(n int) {
		for i := 0; i < n; i++ {
			et.Emit()
		}
	}
	emit(8 + 5) // fill, then wrap: the write cursor sits at slot 5
	obs.SetEventRetention(12)
	emit(12 + 3) // refill past the new bound
	got := obs.Events(nil, 0)
	if len(got) != 12 {
		t.Fatalf("retained %d events, want the new bound 12", len(got))
	}
	for i := 1; i < len(got); i++ {
		if got[i].Seq != got[i-1].Seq+1 {
			t.Fatalf("snapshot out of order: seq %d follows %d", got[i].Seq, got[i-1].Seq)
		}
	}
	if last := obs.LastEventSeq(); got[len(got)-1].Seq != last {
		t.Errorf("newest retained seq %d, want the last emitted %d", got[len(got)-1].Seq, last)
	}
}

func TestRegisterEventTypeInvalidPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("RegisterEventType(\"Bad-Name\") did not panic")
		}
	}()
	obs.RegisterEventType("Bad-Name")
}

func TestEmitOddAttrPair(t *testing.T) {
	obs.ResetEvents()
	et := obs.RegisterEventType("obs_test_odd")
	start := obs.LastEventSeq()
	et.Emit("lonely")
	got := obs.Events(nil, start)
	if len(got) != 1 {
		t.Fatalf("got %d events, want 1", len(got))
	}
	if v, ok := got[0].Attrs["lonely"]; !ok || v != "" {
		t.Errorf("trailing unpaired key recorded as %q (present %v), want empty value", v, ok)
	}
}

// TestConcurrentEmitAndSnapshot hammers the flight recorder from emitters,
// snapshotters, and a retention-resizer at once; under -race this is the
// guarantee that /debug/events can be polled while every subsystem emits.
func TestConcurrentEmitAndSnapshot(t *testing.T) {
	obs.ResetEvents()
	obs.SetEventRetention(64)
	defer obs.SetEventRetention(0)
	et := obs.RegisterEventType("obs_test_concurrent")

	const emitters, perEmitter = 8, 500
	var wg sync.WaitGroup
	for g := 0; g < emitters; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perEmitter; i++ {
				et.Emit("g", strconv.Itoa(g), "i", strconv.Itoa(i))
			}
		}(g)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 200; i++ {
			evs := obs.Events([]string{"obs_test_concurrent"}, 0)
			for j := 1; j < len(evs); j++ {
				if evs[j].Seq <= evs[j-1].Seq {
					t.Errorf("snapshot out of order: seq %d after %d", evs[j].Seq, evs[j-1].Seq)
					return
				}
			}
			if i%50 == 25 {
				obs.SetEventRetention(32 + i)
			}
		}
	}()
	wg.Wait()
	<-done

	// The resizer may have left any retention behind; pin it back down and
	// refill — the ring must hold exactly the bound again.
	obs.SetEventRetention(64)
	for i := 0; i < 100; i++ {
		et.Emit("post", strconv.Itoa(i))
	}
	if got := len(obs.Events(nil, 0)); got != 64 {
		t.Errorf("retained %d events after the storm, want the 64 bound", got)
	}
}
