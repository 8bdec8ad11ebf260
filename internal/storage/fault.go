package storage

import (
	"context"
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/obs"
)

// Deterministic fault injection. A FaultBackend wraps any Backend and
// injects the failure modes real HPC tiers exhibit — transient I/O errors,
// added latency, truncated reads, flipped bits, crashed writes — with
// per-operation probabilities drawn from a seeded PRNG, so a failing run
// replays exactly. Specs come in as a flat string, the grammar
// Hierarchy.InjectFaults takes:
//
//	seed=7,tier=lustre,read.err=0.05,read.corrupt=0.01,read.delay=2ms
//
// Fields: seed=N (PRNG seed, default 1), tier=NAME (restrict injection to
// one tier when applied via Hierarchy.InjectFaults; empty = all tiers),
// read.err / read.corrupt / read.trunc / write.err / write.crash
// (probabilities in [0,1]), read.delay (non-negative Go duration added to
// every read).

// FaultSpec describes what a FaultBackend injects.
type FaultSpec struct {
	Seed int64
	Tier string // tier name filter for Hierarchy.InjectFaults; "" = every tier

	ReadErr     float64       // P(read fails with ErrTransient)
	ReadCorrupt float64       // P(read returns data with one bit flipped)
	ReadTrunc   float64       // P(read returns a truncated slice)
	ReadDelay   time.Duration // added to every read
	WriteErr    float64       // P(write fails with ErrTransient)
	WriteCrash  float64       // P(write dies mid-stream, leaving a torn temp)
}

// ParseFaultSpec parses the comma-separated key=value fault grammar above.
func ParseFaultSpec(s string) (FaultSpec, error) {
	spec := FaultSpec{Seed: 1}
	if strings.TrimSpace(s) == "" {
		return spec, fmt.Errorf("storage: empty fault spec")
	}
	for _, field := range strings.Split(s, ",") {
		k, v, ok := strings.Cut(strings.TrimSpace(field), "=")
		if !ok {
			return spec, fmt.Errorf("storage: fault spec field %q is not key=value", field)
		}
		var err error
		switch k {
		case "seed":
			spec.Seed, err = strconv.ParseInt(v, 10, 64)
		case "tier":
			spec.Tier = v
		case "read.err":
			spec.ReadErr, err = parseProb(v)
		case "read.corrupt":
			spec.ReadCorrupt, err = parseProb(v)
		case "read.trunc":
			spec.ReadTrunc, err = parseProb(v)
		case "read.delay":
			spec.ReadDelay, err = time.ParseDuration(v)
			if err == nil && spec.ReadDelay < 0 {
				err = fmt.Errorf("delay %v is negative", spec.ReadDelay)
			}
		case "write.err":
			spec.WriteErr, err = parseProb(v)
		case "write.crash":
			spec.WriteCrash, err = parseProb(v)
		default:
			return spec, fmt.Errorf("storage: unknown fault spec key %q", k)
		}
		if err != nil {
			return spec, fmt.Errorf("storage: fault spec %s: %w", k, err)
		}
	}
	return spec, nil
}

func parseProb(v string) (float64, error) {
	p, err := strconv.ParseFloat(v, 64)
	if err != nil {
		return 0, err
	}
	if !(p >= 0 && p <= 1) { // NaN fails both
		return 0, fmt.Errorf("probability %v outside [0,1]", p)
	}
	return p, nil
}

// evFaultInjected records every injected fault in the flight recorder with
// its kind and target, so a failing run's event stream shows the injected
// cause right next to the retry/degradation events it provoked.
var evFaultInjected = obs.RegisterEventType("fault_injected")

// crashPutter is implemented by backends that can simulate a put dying
// mid-write (FileBackend leaves a torn temp file behind). Backends without
// it get a plain transient write error instead.
type crashPutter interface {
	CrashPut(key string, data []byte, n int) error
}

// FaultBackend wraps a Backend and injects faults per its spec. All
// randomness comes from one seeded, mutex-guarded PRNG: the same spec over
// the same operation sequence injects the same faults.
type FaultBackend struct {
	inner Backend
	spec  FaultSpec

	mu  sync.Mutex
	rng *rand.Rand
}

// NewFaultBackend wraps inner with deterministic fault injection.
func NewFaultBackend(inner Backend, spec FaultSpec) *FaultBackend {
	return &FaultBackend{inner: inner, spec: spec, rng: rand.New(rand.NewSource(spec.Seed))}
}

// roll draws a uniform [0,1) sample under the rng lock.
func (f *FaultBackend) roll() float64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.rng.Float64()
}

// intn draws a uniform [0,n) sample under the rng lock.
func (f *FaultBackend) intn(n int) int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.rng.Intn(n)
}

// mangle applies post-read faults (corruption, truncation) to data, which
// the fault backend owns (inner backends return fresh copies).
func (f *FaultBackend) mangle(key string, data []byte) []byte {
	if f.spec.ReadCorrupt > 0 && len(data) > 0 && f.roll() < f.spec.ReadCorrupt {
		evFaultInjected.Emit("kind", "read.corrupt", "key", key)
		data[f.intn(len(data))] ^= 1 << f.intn(8)
	}
	if f.spec.ReadTrunc > 0 && len(data) > 0 && f.roll() < f.spec.ReadTrunc {
		evFaultInjected.Emit("kind", "read.trunc", "key", key)
		data = data[:f.intn(len(data))]
	}
	return data
}

func (f *FaultBackend) readFault(ctx context.Context, op, key string) error {
	if f.spec.ReadDelay > 0 {
		// The injected delay honors caller cancellation: a request that
		// gives up mid-read must not pin its goroutine (and its engine-pool
		// slot) for the full injected latency.
		t := time.NewTimer(f.spec.ReadDelay)
		select {
		case <-ctx.Done():
			t.Stop()
			return ctx.Err()
		case <-t.C:
		}
	}
	if f.spec.ReadErr > 0 && f.roll() < f.spec.ReadErr {
		evFaultInjected.Emit("kind", "read.err", "op", op, "key", key)
		return fmt.Errorf("storage: %w: injected %s error for %q", ErrTransient, op, key)
	}
	return nil
}

func (f *FaultBackend) Put(key string, data []byte) error {
	if f.spec.WriteCrash > 0 && f.roll() < f.spec.WriteCrash {
		evFaultInjected.Emit("kind", "write.crash", "key", key)
		if cp, ok := f.inner.(crashPutter); ok {
			return cp.CrashPut(key, data, f.intn(len(data)+1))
		}
		return fmt.Errorf("storage: %w: injected crashed put for %q", ErrTransient, key)
	}
	if f.spec.WriteErr > 0 && f.roll() < f.spec.WriteErr {
		evFaultInjected.Emit("kind", "write.err", "key", key)
		return fmt.Errorf("storage: %w: injected put error for %q", ErrTransient, key)
	}
	return f.inner.Put(key, data)
}

func (f *FaultBackend) Get(key string) ([]byte, error) {
	return f.GetCtx(context.Background(), key)
}

func (f *FaultBackend) GetRange(key string, off, n int64) ([]byte, error) {
	return f.GetRangeCtx(context.Background(), key, off, n)
}

// GetCtx implements ctxReader: Get with cancellable injected delay.
func (f *FaultBackend) GetCtx(ctx context.Context, key string) ([]byte, error) {
	if err := f.readFault(ctx, "get", key); err != nil {
		return nil, err
	}
	data, err := backendGet(ctx, f.inner, key)
	if err != nil {
		return nil, err
	}
	return f.mangle(key, data), nil
}

// GetRangeCtx implements ctxReader: GetRange with cancellable injected delay.
func (f *FaultBackend) GetRangeCtx(ctx context.Context, key string, off, n int64) ([]byte, error) {
	if err := f.readFault(ctx, "getrange", key); err != nil {
		return nil, err
	}
	data, err := backendGetRange(ctx, f.inner, key, off, n)
	if err != nil {
		return nil, err
	}
	return f.mangle(key, data), nil
}

func (f *FaultBackend) Size(key string) (int64, error) { return f.inner.Size(key) }
func (f *FaultBackend) Delete(key string) error        { return f.inner.Delete(key) }
func (f *FaultBackend) Used() int64                    { return f.inner.Used() }
func (f *FaultBackend) Keys() []string                 { return f.inner.Keys() }
