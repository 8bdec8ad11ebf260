// Package engine is the concurrent execution substrate the Canopus core
// runs on. The paper's elasticity argument is about overlap: the
// refactoring phases (decimation, delta calculation, per-level compression,
// tiered placement) and their read-path inverses decompose into units that
// are independent per accuracy level, per delta tile, and per domain
// partition, and §III-C1 calls the per-partition decomposition
// "embarrassingly parallel". This package supplies the pieces the core
// needs to exploit that without every call site reinventing goroutine
// management:
//
//   - Pool: a bounded worker pool (runtime.NumCPU() workers by default)
//     that executes units concurrently with context cancellation and
//     deterministic first-error semantics. A one-worker pool runs units in
//     the calling goroutine in submission order, so the serial path stays
//     bit-for-bit identical to a hand-written loop. A Batch on the same
//     pool takes units one at a time, so a caller can start each as soon
//     as its inputs exist while it goes on working; Run is a Batch whose
//     first failure cancels its siblings.
//   - Product: the uniform descriptor for every artifact the core moves
//     between its write and read steps and storage (mesh geometry, vertex
//     mappings, level data, delta tiles).
//   - Group: typed single-flight deduplication for concurrent cache misses,
//     where a follower of a leader cancelled mid-call retries on its own.
//   - Cache: the generation-stamped, cost-bounded single-flight LRU behind
//     both read caches, adios.PageCache and compress.TileCache.
package engine

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
)

// DefaultWorkers is the pool width used when a caller passes workers <= 0.
func DefaultWorkers() int { return runtime.NumCPU() }

// Unit is one independently executable piece of a phase: a level, a tile, a
// range of vertices.
type Unit func(ctx context.Context) error

// Pool executes units on a bounded number of goroutines.
type Pool struct {
	workers int
}

// NewPool returns a pool of the given width; workers <= 0 selects
// runtime.NumCPU().
func NewPool(workers int) *Pool {
	if workers <= 0 {
		workers = DefaultWorkers()
	}
	return &Pool{workers: workers}
}

// Workers reports the pool width.
func (p *Pool) Workers() int { return p.workers }

// Run executes units, at most p.Workers() at a time, and waits for all
// started units to finish. The first failure (lowest unit index, matching
// what a serial loop would report) cancels the remaining units; units not
// yet started are skipped. A cancelled ctx yields ctx.Err().
//
// With one worker, or a lone unit, units run in the calling goroutine in
// order — the exact serial semantics of the pre-engine code path, with no
// fan-out state. Otherwise Run is a Batch whose first failure cancels the
// context its units run under.
func (p *Pool) Run(ctx context.Context, units ...Unit) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if p.workers == 1 || len(units) <= 1 {
		for _, u := range units {
			if err := ctx.Err(); err != nil {
				return err
			}
			if err := u(ctx); err != nil {
				return err
			}
		}
		return nil
	}
	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	b := p.Batch()
	b.cancel, b.errs = cancel, make([]error, 0, len(units))
	for _, u := range units {
		b.Go(runCtx, u)
	}
	// Cancellation fallout of the parent ctx reports the parent's error.
	err := b.Wait()
	if perr := ctx.Err(); perr != nil && (err == nil || cancellation(err)) {
		return perr
	}
	return err
}

// cancellation reports whether err is a bare context cancellation rather
// than a unit's own failure.
func cancellation(err error) bool {
	return err == context.Canceled || err == context.DeadlineExceeded
}

// pickError returns the lowest-indexed error of errs that is not a bare
// cancellation, else the lowest-indexed one that is, else nil.
func pickError(errs []error) error {
	var cancelled error
	for _, err := range errs {
		switch {
		case err == nil:
		case cancellation(err):
			if cancelled == nil {
				cancelled = err
			}
		default:
			return err
		}
	}
	return cancelled
}

// Batch runs units that its caller starts one at a time, each as soon as
// its inputs exist, beside the caller's own work: a writer hands a level's
// unit over while it goes on to make the next level. At most the pool's
// width of them run at once. A unit's failure skips every unit not yet
// begun, and Failed tells the caller to stop its own work; it interrupts
// units already running only in Run's batch, which cancels their context.
// Wait joins them all.
type Batch struct {
	sem    chan struct{}      // nil on a one-worker pool: units run inline
	cancel context.CancelFunc // Run's: cancels the units' context on failure
	wg     sync.WaitGroup
	failed atomic.Bool
	mu     sync.Mutex
	errs   []error // by start order
}

// Batch returns an empty batch on p's workers.
func (p *Pool) Batch() *Batch {
	b := &Batch{}
	if p.workers > 1 {
		b.sem = make(chan struct{}, p.workers)
	}
	return b
}

// Go starts u, unless a unit of the batch has failed. On a one-worker pool
// u runs now, in the calling goroutine, so units run in the order they are
// started; otherwise Go returns at once and u runs on its own goroutine
// when one of the pool's slots is free.
func (b *Batch) Go(ctx context.Context, u Unit) {
	if b.failed.Load() {
		return
	}
	b.mu.Lock()
	i := len(b.errs)
	b.errs = append(b.errs, nil)
	b.mu.Unlock()
	if b.sem == nil {
		b.run(ctx, i, u)
		return
	}
	b.wg.Add(1)
	go func() {
		defer b.wg.Done()
		select {
		case b.sem <- struct{}{}:
		case <-ctx.Done():
			b.fail(i, ctx.Err())
			return
		}
		defer func() { <-b.sem }()
		b.run(ctx, i, u)
	}()
}

func (b *Batch) run(ctx context.Context, i int, u Unit) {
	if b.failed.Load() {
		return
	}
	err := ctx.Err()
	if err == nil {
		err = u(ctx)
	}
	if err != nil {
		b.fail(i, err)
	}
}

func (b *Batch) fail(i int, err error) {
	b.mu.Lock()
	b.errs[i] = err
	b.mu.Unlock()
	b.failed.Store(true)
	if b.cancel != nil {
		b.cancel()
	}
}

// Failed reports whether a unit of the batch has failed.
func (b *Batch) Failed() bool { return b.failed.Load() }

// Wait waits for every started unit and returns the first failure in start
// order, a real failure ahead of a bare cancellation, or nil.
func (b *Batch) Wait() error {
	b.wg.Wait()
	return pickError(b.errs)
}

// RunRange executes fn over the index range [0, n), sharded into contiguous
// sub-ranges that run concurrently on the pool. It is the bulk-parallel
// primitive for per-vertex and per-chunk loops on the hot read path: instead
// of one closure (and one pool-accounting round) per element, the range is
// split into at most a few shards per worker, so the allocation cost of the
// fan-out is O(workers), not O(n). fn must be safe to call concurrently on
// disjoint ranges; when every fn write targets its own indices the result is
// bit-identical at every worker count. A nil or one-worker pool, or a small
// n, degrades to a single inline call fn(0, n) with zero goroutines.
func (p *Pool) RunRange(ctx context.Context, n int, fn func(start, end int) error) error {
	if n <= 0 {
		return ctx.Err()
	}
	workers := 1
	if p != nil {
		workers = p.workers
	}
	// Two shards per worker evens out ragged per-element costs without
	// shrinking shards below a useful grain.
	const minShard = 1024
	shards := min(workers*2, (n+minShard-1)/minShard)
	if workers == 1 || shards <= 1 {
		if err := ctx.Err(); err != nil {
			return err
		}
		return fn(0, n)
	}
	units := make([]Unit, shards)
	per := (n + shards - 1) / shards
	for i := range units {
		start, end := i*per, min(i*per+per, n)
		units[i] = func(context.Context) error { return fn(start, end) }
	}
	return p.Run(ctx, units...)
}
