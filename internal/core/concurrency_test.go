package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/adios"
	"repro/internal/storage"
)

// TestWriteWorkersByteIdentical is the engine's core determinism guarantee:
// the stored containers do not depend on the worker count, because products
// are assembled in canonical order and placement stays serial.
func TestWriteWorkersByteIdentical(t *testing.T) {
	for _, opts := range []Options{
		{Levels: 3, Chunks: 4, RelTolerance: 1e-4},
		{Levels: 2, Mode: ModeDirect, RelTolerance: 1e-4},
	} {
		serial, parallel := newIO(), newIO()
		ds := testDataset("dpot", 24)
		optsSerial := opts
		optsSerial.Workers = 1
		optsParallel := opts
		optsParallel.Workers = 8
		if _, err := Write(context.Background(), serial, ds, optsSerial); err != nil {
			t.Fatal(err)
		}
		if _, err := Write(context.Background(), parallel, ds, optsParallel); err != nil {
			t.Fatal(err)
		}
		sk, pk := serial.H.Keys(), parallel.H.Keys()
		if len(sk) != len(pk) {
			t.Fatalf("mode %v: %d keys serial vs %d parallel", opts.Mode, len(sk), len(pk))
		}
		for i, k := range sk {
			if pk[i] != k {
				t.Fatalf("mode %v: key %q vs %q", opts.Mode, k, pk[i])
			}
			sb, _, err := serial.H.Get(context.Background(), k, 1)
			if err != nil {
				t.Fatal(err)
			}
			pb, _, err := parallel.H.Get(context.Background(), k, 1)
			if err != nil {
				t.Fatal(err)
			}
			if string(sb) != string(pb) {
				t.Fatalf("mode %v: container %q differs between workers=1 and workers=8", opts.Mode, k)
			}
		}
	}
}

// TestSeriesWorkersByteIdentical is TestWriteWorkersByteIdentical for the
// campaign writer, which runs the same write step: the hierarchy and three
// steps store the same bytes at one worker and at eight.
func TestSeriesWorkersByteIdentical(t *testing.T) {
	ds := testDataset("camp", 24)
	stores := make([]*adios.IO, 2)
	for i, workers := range []int{1, 8} {
		stores[i] = newIO()
		sw, err := NewSeriesWriter(context.Background(), stores[i], "camp", ds.Mesh, 2.5,
			Options{Levels: 3, Chunks: 4, RelTolerance: 1e-4, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		for step := 0; step < 3; step++ {
			data := make([]float64, len(ds.Data))
			for v, x := range ds.Data {
				data[v] = x * float64(step+1)
			}
			if _, err := sw.WriteStep(context.Background(), data); err != nil {
				t.Fatal(err)
			}
		}
	}
	sk, pk := stores[0].H.Keys(), stores[1].H.Keys()
	if len(sk) != len(pk) {
		t.Fatalf("%d keys serial vs %d parallel", len(sk), len(pk))
	}
	for i, k := range sk {
		if pk[i] != k {
			t.Fatalf("key %q vs %q", k, pk[i])
		}
		sb, _, err := stores[0].H.Get(context.Background(), k, 1)
		if err != nil {
			t.Fatal(err)
		}
		pb, _, err := stores[1].H.Get(context.Background(), k, 1)
		if err != nil {
			t.Fatal(err)
		}
		if string(sb) != string(pb) {
			t.Fatalf("container %q differs between workers=1 and workers=8", k)
		}
	}
}

// TestConcurrentRetrieveBitIdentical exercises the tentpole concurrency
// contract: many goroutines retrieving through one shared Reader all get
// fields bit-identical to a serial retrieval.
func TestConcurrentRetrieveBitIdentical(t *testing.T) {
	aio := newIO()
	ds := testDataset("dpot", 32)
	if _, err := Write(context.Background(), aio, ds, Options{Levels: 3, Chunks: 4, RelTolerance: 1e-6}); err != nil {
		t.Fatal(err)
	}

	// Serial reference on a fresh reader with a single worker.
	ref, err := OpenReader(context.Background(), aio, "dpot")
	if err != nil {
		t.Fatal(err)
	}
	ref.SetWorkers(1)
	want := make([][]float64, 3)
	for lvl := 0; lvl < 3; lvl++ {
		v, err := ref.Retrieve(context.Background(), lvl)
		if err != nil {
			t.Fatal(err)
		}
		want[lvl] = v.Data
	}

	// One shared reader, cold caches, hammered from many goroutines.
	rd, err := OpenReader(context.Background(), aio, "dpot")
	if err != nil {
		t.Fatal(err)
	}
	rd.SetWorkers(4)
	const goroutines = 12
	var wg sync.WaitGroup
	errs := make([]error, goroutines)
	for g := 0; g < goroutines; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			lvl := g % 3
			v, err := rd.Retrieve(context.Background(), lvl)
			if err != nil {
				errs[g] = err
				return
			}
			if len(v.Data) != len(want[lvl]) {
				errs[g] = fmt.Errorf("level %d: %d values, want %d", lvl, len(v.Data), len(want[lvl]))
				return
			}
			for i, x := range v.Data {
				if math.Float64bits(x) != math.Float64bits(want[lvl][i]) {
					errs[g] = fmt.Errorf("level %d vertex %d: %g != serial %g", lvl, i, x, want[lvl][i])
					return
				}
			}
		}()
	}
	wg.Wait()
	for g, err := range errs {
		if err != nil {
			t.Fatalf("goroutine %d: %v", g, err)
		}
	}
}

// TestConcurrentRegionMatchesRetrieve runs regional retrievals concurrently
// with full retrievals on one reader and cross-checks values.
func TestConcurrentRegionMatchesRetrieve(t *testing.T) {
	aio := newIO()
	ds := testDataset("dpot", 32)
	if _, err := Write(context.Background(), aio, ds, Options{Levels: 3, Chunks: 4, RelTolerance: 1e-6}); err != nil {
		t.Fatal(err)
	}
	rd, err := OpenReader(context.Background(), aio, "dpot")
	if err != nil {
		t.Fatal(err)
	}
	full, err := rd.Retrieve(context.Background(), 0)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make([]error, 8)
	for g := 0; g < 8; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			rv, err := rd.RetrieveRegion(context.Background(), 0, 0.1, 0.1, 0.6, 0.6)
			if err != nil {
				errs[g] = err
				return
			}
			for vi, ok := range rv.Have {
				if !ok {
					continue
				}
				if math.Float64bits(rv.Data[vi]) != math.Float64bits(full.Data[vi]) {
					errs[g] = fmt.Errorf("vertex %d: region %g != full %g", vi, rv.Data[vi], full.Data[vi])
					return
				}
			}
		}()
	}
	wg.Wait()
	for g, err := range errs {
		if err != nil {
			t.Fatalf("goroutine %d: %v", g, err)
		}
	}
}

// slowBackend delays every read so a cancellation lands mid-retrieval.
type slowBackend struct {
	storage.Backend
	delay time.Duration
}

func (b slowBackend) Get(key string) ([]byte, error) {
	time.Sleep(b.delay)
	return b.Backend.Get(key)
}

func (b slowBackend) GetRange(key string, off, n int64) ([]byte, error) {
	time.Sleep(b.delay)
	return b.Backend.GetRange(key, off, n)
}

// TestRetrieveCancellation checks both halves of the cancellation contract:
// an already-cancelled context fails fast, and a cancellation arriving
// mid-fetch aborts the retrieval promptly with context.Canceled instead of
// draining the remaining levels and tiles.
func TestRetrieveCancellation(t *testing.T) {
	aio := newIO()
	ds := testDataset("dpot", 32)
	if _, err := Write(context.Background(), aio, ds, Options{Levels: 4, Chunks: 4, RelTolerance: 1e-4}); err != nil {
		t.Fatal(err)
	}
	rd, err := OpenReader(context.Background(), aio, "dpot")
	if err != nil {
		t.Fatal(err)
	}

	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := rd.Retrieve(cancelled, 0); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled retrieve: err = %v, want context.Canceled", err)
	}

	// Slow every backend read down, then cancel shortly after the
	// retrieval starts: it must return long before the ~20 reads a full
	// 4-level retrieval would otherwise issue.
	for i := 0; i < aio.H.NumTiers(); i++ {
		tier := aio.H.Tier(i)
		tier.Backend = slowBackend{Backend: tier.Backend, delay: 50 * time.Millisecond}
	}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(20 * time.Millisecond)
		cancel()
	}()
	t0 := time.Now()
	_, err = rd.Retrieve(ctx, 0)
	elapsed := time.Since(t0)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("mid-fetch cancel: err = %v, want context.Canceled", err)
	}
	if elapsed > 500*time.Millisecond {
		t.Fatalf("cancelled retrieve took %v, want prompt return", elapsed)
	}
}

// TestWriteCancellation checks that a cancelled context aborts the write
// pipeline between units.
func TestWriteCancellation(t *testing.T) {
	aio := newIO()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Write(ctx, aio, testDataset("dpot", 24), Options{Levels: 3}); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled write: err = %v, want context.Canceled", err)
	}
	if n := len(aio.H.Keys()); n != 0 {
		t.Fatalf("cancelled write stored %d containers", n)
	}

	// A campaign step cancelled before it starts stores nothing and leaves
	// the step index alone.
	ds := testDataset("camp", 24)
	sw, err := NewSeriesWriter(context.Background(), aio, "camp", ds.Mesh, 2.5, Options{Levels: 3, Chunks: 4, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	before := len(aio.H.Keys())
	if _, err := sw.WriteStep(ctx, ds.Data); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled step: err = %v, want context.Canceled", err)
	}
	if n := len(aio.H.Keys()); n != before {
		t.Fatalf("cancelled step stored %d containers", n-before)
	}
	// Cancel at every point the step checks for it in turn, inside the
	// write step's units too: each fails with context.Canceled until the
	// step has nothing left to check.
	wrapped := 0
	for n := int64(1); ; n++ {
		ctx := &cancelAfter{Context: context.Background()}
		ctx.left.Store(n)
		_, err := sw.WriteStep(ctx, ds.Data)
		if err == nil {
			break
		}
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("step cancelled at check %d: err = %v, want context.Canceled", n, err)
		}
		if err != context.Canceled {
			wrapped++
		}
		if n == 10000 {
			t.Fatal("step never completed")
		}
	}
	if wrapped == 0 {
		t.Fatal("no cancellation surfaced from inside a write-step unit")
	}

	// The same for a single write, at one worker (every unit inline between
	// the chain's steps) and at two (units beside the chain). Each cancelled
	// write stores nothing, and returns only once every goroutine it started
	// has stopped checking ctx. At two workers, some cancellation must
	// surface from the unit of level 0 or 1: those start while the chain
	// still has a level to make, so the chain stops and the unit is joined
	// before the error returns.
	for _, workers := range []int{1, 2} {
		beside := 0
		for n := int64(1); ; n++ {
			ctx := &cancelAfter{Context: context.Background()}
			ctx.left.Store(n)
			aio := newIO()
			before := runtime.NumGoroutine()
			_, err := Write(ctx, aio, testDataset("dpot", 24), Options{Levels: 4, Chunks: 2, Workers: workers})
			left := ctx.left.Load()
			if !goroutinesSettle(before) {
				t.Fatalf("workers %d, write cancelled at check %d: %d goroutines outlive it (%d before)", workers, n, runtime.NumGoroutine(), before)
			}
			if ctx.left.Load() != left {
				t.Fatalf("workers %d, write cancelled at check %d: ctx checked after the write returned", workers, n)
			}
			if err == nil {
				break
			}
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("workers %d, write cancelled at check %d: err = %v, want context.Canceled", workers, n, err)
			}
			if k := aio.H.Keys(); len(k) != 0 {
				t.Fatalf("workers %d, write cancelled at check %d stored %v", workers, n, k)
			}
			if msg := err.Error(); strings.Contains(msg, "level 0:") || strings.Contains(msg, "level 1:") ||
				strings.Contains(msg, "delta 0 ") || strings.Contains(msg, "delta 1 ") {
				beside++
			}
			if n == 10000 {
				t.Fatal("write never completed")
			}
		}
		if workers > 1 && beside == 0 {
			t.Fatal("no cancellation surfaced from a level unit running beside the chain")
		}
	}
}

// goroutinesSettle waits until no more goroutines run than before: one that
// has signalled its group may still be on its way out.
func goroutinesSettle(before int) bool {
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > before; {
		if time.Now().After(deadline) {
			return false
		}
		runtime.Gosched()
	}
	return true
}

// cancelAfter is a context whose Err reports context.Canceled once it has
// been asked left times.
type cancelAfter struct {
	context.Context
	left atomic.Int64
}

func (c *cancelAfter) Err() error {
	if c.left.Add(-1) < 0 {
		return context.Canceled
	}
	return nil
}

// TestConcurrentSeriesRetrieve exercises the SeriesReader's shared
// hierarchy cache under concurrent step retrievals.
func TestConcurrentSeriesRetrieve(t *testing.T) {
	aio := newIO()
	ds := testDataset("camp", 24)
	sw, err := NewSeriesWriter(context.Background(), aio, "camp", ds.Mesh, 2.5, Options{Levels: 3, Chunks: 2, RelTolerance: 1e-4})
	if err != nil {
		t.Fatal(err)
	}
	for s := 0; s < 3; s++ {
		if _, err := sw.WriteStep(context.Background(), ds.Data); err != nil {
			t.Fatal(err)
		}
	}
	sr, err := OpenSeriesReader(context.Background(), aio, "camp")
	if err != nil {
		t.Fatal(err)
	}
	ref, err := sr.RetrieveStep(context.Background(), 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make([]error, 9)
	for g := 0; g < 9; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, err := sr.RetrieveStep(context.Background(), g%3, 0)
			if err != nil {
				errs[g] = err
				return
			}
			// Steps carry identical data in this test, so every
			// restored field must match the reference exactly.
			for i, x := range v.Data {
				if math.Float64bits(x) != math.Float64bits(ref.Data[i]) {
					errs[g] = fmt.Errorf("step %d vertex %d differs", g%3, i)
					return
				}
			}
		}()
	}
	wg.Wait()
	for g, err := range errs {
		if err != nil {
			t.Fatalf("goroutine %d: %v", g, err)
		}
	}
}

// TestConcurrentMixedReadersOneIO drives two Readers over one shared IO and
// hierarchy concurrently — the storage/adios layers must tolerate parallel
// retrievals of different variables.
func TestConcurrentMixedReadersOneIO(t *testing.T) {
	aio := newIO()
	for _, name := range []string{"a", "b"} {
		if _, err := Write(context.Background(), aio, testDataset(name, 24), Options{Levels: 3, Chunks: 2, RelTolerance: 1e-4}); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	errs := make([]error, 8)
	for g := 0; g < 8; g++ {
		g := g
		name := []string{"a", "b"}[g%2]
		wg.Add(1)
		go func() {
			defer wg.Done()
			rd, err := OpenReader(context.Background(), aio, name)
			if err != nil {
				errs[g] = err
				return
			}
			if _, err := rd.Retrieve(context.Background(), 0); err != nil {
				errs[g] = err
			}
		}()
	}
	wg.Wait()
	for g, err := range errs {
		if err != nil {
			t.Fatalf("goroutine %d: %v", g, err)
		}
	}
}

// TestConcurrentFollowerOutlivesCancelledLeader: two refinements of one
// level race on a fresh reader, so the second joins the first's geometry
// load. The first caller gives up mid-load; the second, whose own ctx is
// live, must still get its view instead of the first caller's
// context.Canceled.
func TestConcurrentFollowerOutlivesCancelledLeader(t *testing.T) {
	aio := newIO()
	ds := testDataset("dpot", 32)
	if _, err := Write(context.Background(), aio, ds, Options{Levels: 3, Chunks: 4, RelTolerance: 1e-6}); err != nil {
		t.Fatal(err)
	}
	// Another reader warms the IO's index cache, so opening a container
	// reads nothing from the slowed tiers below; its level-1 view is the
	// reference.
	ref, err := OpenReader(context.Background(), aio, "dpot")
	if err != nil {
		t.Fatal(err)
	}
	want, err := ref.Retrieve(context.Background(), 1)
	if err != nil {
		t.Fatal(err)
	}
	rd, err := OpenReader(context.Background(), aio, "dpot")
	if err != nil {
		t.Fatal(err)
	}
	leader, err := rd.Base(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	follower, err := rd.Base(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < aio.H.NumTiers(); i++ {
		tier := aio.H.Tier(i)
		tier.Backend = slowBackend{Backend: tier.Backend, delay: 150 * time.Millisecond}
	}
	ctx, cancel := context.WithCancel(context.Background())
	timer := time.AfterFunc(60*time.Millisecond, cancel)
	defer timer.Stop()
	leaderErr := make(chan error, 1)
	go func() { leaderErr <- rd.Augment(ctx, leader) }()
	time.Sleep(20 * time.Millisecond)
	err = rd.Augment(context.Background(), follower)
	if lerr := <-leaderErr; !errors.Is(lerr, context.Canceled) {
		t.Fatalf("leader Augment: err = %v, want context.Canceled", lerr)
	}
	if err != nil {
		t.Fatalf("follower Augment failed with its leader's cancellation: %v", err)
	}
	if follower.Level != 1 {
		t.Fatalf("follower at level %d, want 1", follower.Level)
	}
	for i, x := range follower.Data {
		if math.Float64bits(x) != math.Float64bits(want.Data[i]) {
			t.Fatalf("follower vertex %d: %g != reference %g", i, x, want.Data[i])
		}
	}
}
