package engine

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestPoolDefaults(t *testing.T) {
	if NewPool(0).Workers() != DefaultWorkers() {
		t.Fatal("workers=0 should select DefaultWorkers")
	}
	if NewPool(-3).Workers() != DefaultWorkers() {
		t.Fatal("negative workers should select DefaultWorkers")
	}
	if NewPool(7).Workers() != 7 {
		t.Fatal("explicit width not honored")
	}
}

func TestPoolRunsEveryUnit(t *testing.T) {
	for _, workers := range []int{1, 2, 8} {
		var n atomic.Int64
		units := make([]Unit, 50)
		for i := range units {
			units[i] = func(context.Context) error { n.Add(1); return nil }
		}
		if err := NewPool(workers).Run(context.Background(), units...); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if n.Load() != 50 {
			t.Fatalf("workers=%d: ran %d of 50 units", workers, n.Load())
		}
	}
}

func TestPoolSerialOrder(t *testing.T) {
	var order []int
	units := make([]Unit, 10)
	for i := range units {
		i := i
		units[i] = func(context.Context) error { order = append(order, i); return nil }
	}
	if err := NewPool(1).Run(context.Background(), units...); err != nil {
		t.Fatal(err)
	}
	for i, got := range order {
		if got != i {
			t.Fatalf("one-worker pool ran out of order: %v", order)
		}
	}
}

func TestPoolBoundsConcurrency(t *testing.T) {
	const workers = 3
	var cur, peak atomic.Int64
	units := make([]Unit, 20)
	for i := range units {
		units[i] = func(context.Context) error {
			c := cur.Add(1)
			for {
				p := peak.Load()
				if c <= p || peak.CompareAndSwap(p, c) {
					break
				}
			}
			time.Sleep(time.Millisecond)
			cur.Add(-1)
			return nil
		}
	}
	if err := NewPool(workers).Run(context.Background(), units...); err != nil {
		t.Fatal(err)
	}
	if p := peak.Load(); p > workers {
		t.Fatalf("observed %d concurrent units on a %d-worker pool", p, workers)
	}
}

func TestPoolFirstErrorWins(t *testing.T) {
	errA := errors.New("a")
	errB := errors.New("b")
	for _, workers := range []int{1, 4} {
		units := []Unit{
			func(context.Context) error { return nil },
			func(context.Context) error { return errA },
			func(context.Context) error { time.Sleep(5 * time.Millisecond); return errB },
		}
		err := NewPool(workers).Run(context.Background(), units...)
		if !errors.Is(err, errA) {
			t.Fatalf("workers=%d: err = %v, want lowest-indexed failure %v", workers, err, errA)
		}
	}
}

func TestPoolErrorCancelsSiblings(t *testing.T) {
	boom := errors.New("boom")
	var cancelled atomic.Bool
	units := []Unit{
		func(context.Context) error { return boom },
		func(ctx context.Context) error {
			select {
			case <-ctx.Done():
				cancelled.Store(true)
				return ctx.Err()
			case <-time.After(2 * time.Second):
				return errors.New("sibling not cancelled")
			}
		},
	}
	if err := NewPool(2).Run(context.Background(), units...); !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
}

func TestPoolContextCancellation(t *testing.T) {
	for _, workers := range []int{1, 4} {
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		err := NewPool(workers).Run(ctx, func(context.Context) error {
			t.Fatal("unit ran under a cancelled context")
			return nil
		})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: err = %v, want context.Canceled", workers, err)
		}
	}
}

// TestBatch checks the started-one-at-a-time pool: inline in start order at
// one worker, bounded by the pool's width otherwise, and after a failure no
// further unit begins, Failed reports it, and Wait returns the first real
// failure in start order ahead of a bare cancellation.
func TestBatch(t *testing.T) {
	ctx := context.Background()
	b := NewPool(1).Batch()
	var order []int
	for i := 0; i < 4; i++ {
		b.Go(ctx, func(context.Context) error { order = append(order, i); return nil })
		if len(order) != i+1 {
			t.Fatalf("one-worker batch: unit %d not run inline", i)
		}
	}
	if err := b.Wait(); err != nil || order[3] != 3 {
		t.Fatalf("one-worker batch: order %v, err %v", order, err)
	}

	b = NewPool(2).Batch()
	var running, peak atomic.Int32
	release := make(chan struct{})
	for i := 0; i < 6; i++ {
		b.Go(ctx, func(context.Context) error {
			n := running.Add(1)
			for p := peak.Load(); n > p && !peak.CompareAndSwap(p, n); p = peak.Load() {
			}
			<-release
			running.Add(-1)
			return nil
		})
	}
	close(release)
	if err := b.Wait(); err != nil || peak.Load() > 2 {
		t.Fatalf("two-worker batch: peak %d running, err %v", peak.Load(), err)
	}

	// At two workers a unit started first that ends in a bare cancellation
	// ranks behind a later one's real failure.
	boom := errors.New("boom")
	for _, workers := range []int{1, 2} {
		b := NewPool(workers).Batch()
		gate := make(chan struct{})
		var ran atomic.Int32
		if workers > 1 {
			b.Go(ctx, func(context.Context) error { <-gate; return context.Canceled })
		}
		b.Go(ctx, func(context.Context) error { return boom })
		for !b.Failed() {
			time.Sleep(time.Millisecond)
		}
		b.Go(ctx, func(context.Context) error { ran.Add(1); return nil })
		close(gate)
		if err := b.Wait(); err != boom || ran.Load() != 0 {
			t.Fatalf("workers %d: err %v (want boom), %d units begun after the failure", workers, err, ran.Load())
		}
	}
}

func TestProductVarNames(t *testing.T) {
	cases := []struct {
		p    Product
		want string
	}{
		{Product{Kind: KindMesh, Level: 2}, "mesh"},
		{Product{Kind: KindMapping}, "mapping"},
		{Product{Kind: KindData, Codec: "zfp"}, "data"},
		{Product{Kind: KindDelta, Chunk: 7, Codec: "zfp"}, "delta.c7"},
	}
	for _, c := range cases {
		if got := c.p.VarName(); got != c.want {
			t.Errorf("VarName(%v) = %q, want %q", c.p.Kind, got, c.want)
		}
	}
	if a := (Product{Kind: KindData, Codec: "sz"}).Attrs(); a["codec"] != "sz" {
		t.Error("codec attr missing")
	}
	if a := (Product{Kind: KindMesh}).Attrs(); a != nil {
		t.Error("metadata product should carry no attrs")
	}
}

func TestGroupDeduplicates(t *testing.T) {
	var calls atomic.Int64
	var g Group[string, any]
	gate := make(chan struct{})
	const n = 16
	var wg sync.WaitGroup
	results := make([]any, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, err := g.Do("mesh-L3", func() (any, error) {
				calls.Add(1)
				<-gate
				return "decoded", nil
			})
			if err != nil {
				t.Error(err)
			}
			results[i] = v
		}(i)
	}
	// Let every goroutine reach Do before releasing the first call.
	time.Sleep(10 * time.Millisecond)
	close(gate)
	wg.Wait()
	if c := calls.Load(); c != 1 {
		t.Fatalf("fn ran %d times for one key", c)
	}
	for _, r := range results {
		if r != "decoded" {
			t.Fatal("caller missed the shared result")
		}
	}
}

func TestGroupDistinctKeys(t *testing.T) {
	var g Group[string, any]
	a, _ := g.Do("a", func() (any, error) { return 1, nil })
	b, _ := g.Do("b", func() (any, error) { return 2, nil })
	if a != 1 || b != 2 {
		t.Fatal("keys interfered")
	}
}

// TestPoolInlinePathsAllocateNothing guards Run's inline paths: a lone unit
// on a wide pool and any number of units on a one-worker pool run in the
// calling goroutine with no fan-out state, so the serial reference path and
// a warm reader's single-unit steps cost no allocation.
func TestPoolInlinePathsAllocateNothing(t *testing.T) {
	ctx := context.Background()
	var n int
	u := func(context.Context) error { n++; return nil }
	lone, two := []Unit{u}, []Unit{u, u}
	for _, tc := range []struct {
		workers int
		units   []Unit
	}{{4, lone}, {1, two}} {
		p := NewPool(tc.workers)
		if allocs := testing.AllocsPerRun(100, func() {
			if err := p.Run(ctx, tc.units...); err != nil {
				t.Fatal(err)
			}
		}); allocs != 0 {
			t.Errorf("%d unit(s) on %d worker(s): %v allocations per Run, want 0", len(tc.units), tc.workers, allocs)
		}
	}
}
