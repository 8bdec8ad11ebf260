package obs

import (
	"context"
	"encoding/json"
	"fmt"
	"sync"
	"testing"
	"time"
)

func TestNilSpanIsSafe(t *testing.T) {
	var s *Span
	s.SetAttr("k", "v")
	s.End()
	if c := s.Child("x"); c != nil {
		t.Fatal("nil span child should be nil")
	}
	if d := s.Duration(); d != 0 {
		t.Fatalf("nil span duration = %v", d)
	}
	ctx, sp := StartSpan(context.Background(), "orphan")
	if sp != nil {
		t.Fatal("StartSpan without a root should return a nil span")
	}
	if FromContext(ctx) != nil {
		t.Fatal("context should stay span-free")
	}
}

func TestTraceTreeAndRing(t *testing.T) {
	ResetTraces()
	ctx, root := Trace(context.Background(), "retrieve")
	root.SetAttr("name", "dpot")
	ctx2, base := StartSpan(ctx, "core.base")
	if FromContext(ctx2) != base {
		t.Fatal("child context should carry the child span")
	}
	fetch := base.Child("storage.get_range")
	fetch.SetAttr("tier", "tmpfs")
	fetch.End()
	base.End()
	_, aug := StartSpan(ctx, "core.augment")
	aug.End()
	root.End()

	traces := LastTraces(1)
	if len(traces) != 1 {
		t.Fatalf("ring has %d traces, want 1", len(traces))
	}
	d := traces[0]
	if d.Name != "retrieve" || d.Attrs["name"] != "dpot" {
		t.Fatalf("root dump = %+v", d)
	}
	if len(d.Children) != 2 || d.Children[0].Name != "core.base" || d.Children[1].Name != "core.augment" {
		t.Fatalf("children = %+v", d.Children)
	}
	if len(d.Children[0].Children) != 1 || d.Children[0].Children[0].Attrs["tier"] != "tmpfs" {
		t.Fatalf("grandchildren = %+v", d.Children[0].Children)
	}
	var names []string
	d.Walk(func(s SpanDump) { names = append(names, s.Name) })
	if len(names) != 4 {
		t.Fatalf("walk visited %v", names)
	}
	if _, err := json.Marshal(d); err != nil {
		t.Fatalf("dump does not marshal: %v", err)
	}
}

// TestConcurrentChildCreation is the span-tree acceptance test for the
// parallel delta-tile decode path: many goroutines hang children (and
// grandchildren) off one parent at once.
func TestConcurrentChildCreation(t *testing.T) {
	ResetTraces()
	_, root := Trace(context.Background(), "retrieve")
	const workers, perWorker = 8, 50
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				c := root.Child(fmt.Sprintf("tile-%d-%d", w, i))
				c.SetAttr("worker", fmt.Sprint(w))
				gc := c.Child("decode")
				gc.End()
				c.End()
			}
		}(w)
	}
	wg.Wait()
	root.End()
	d := LastTraces(1)[0]
	if len(d.Children) != workers*perWorker {
		t.Fatalf("root has %d children, want %d", len(d.Children), workers*perWorker)
	}
	for _, c := range d.Children {
		if len(c.Children) != 1 {
			t.Fatalf("child %s has %d children, want 1", c.Name, len(c.Children))
		}
	}
}

// TestDumpWhileTreeGrows snapshots an open trace while other goroutines are
// still adding spans — the /debug/trace path racing a live retrieval.
//
// The grower is paced by the dumper. Left to run free it outgrew it: a dump
// costs time in proportion to the children already there, so under -race on
// two CPUs the tree grew faster than it could be dumped and the test ran
// until it was killed (3 of 4 runs).
func TestDumpWhileTreeGrows(t *testing.T) {
	_, root := Trace(context.Background(), "live")
	// One token per span to add. The buffer holds a dump's worth, so the
	// grower keeps adding spans while the dump it races is in progress.
	const perDump = 32
	tokens := make(chan struct{}, perDump)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for range tokens {
			root.Child("c").End()
		}
	}()
	for i := 0; i < 100; i++ {
		for j := 0; j < perDump; j++ {
			tokens <- struct{}{}
		}
		d := root.Dump()
		if _, err := json.Marshal(d); err != nil {
			t.Fatalf("marshal: %v", err)
		}
	}
	close(tokens)
	wg.Wait()
	root.End()
}

func TestTraceRingBounded(t *testing.T) {
	ResetTraces()
	for i := 0; i < DefaultTraceRetention+10; i++ {
		_, r := Trace(context.Background(), fmt.Sprintf("t%d", i))
		r.End()
	}
	all := LastTraces(0)
	if len(all) != DefaultTraceRetention {
		t.Fatalf("ring retained %d, want %d", len(all), DefaultTraceRetention)
	}
	if all[0].Name != fmt.Sprintf("t%d", DefaultTraceRetention+9) {
		t.Fatalf("newest-first order violated: first is %s", all[0].Name)
	}
}

func TestSpanDurationMonotonic(t *testing.T) {
	_, root := Trace(context.Background(), "timed")
	time.Sleep(time.Millisecond)
	root.End()
	if root.Duration() < time.Millisecond {
		t.Fatalf("duration %v < 1ms", root.Duration())
	}
	end := root.Duration()
	root.End() // double End keeps the first end time
	if root.Duration() != end {
		t.Fatal("second End changed the duration")
	}
}
