package storage

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"
)

// badFaultSpecs are specs ParseFaultSpec must refuse; FuzzParseFaultSpec
// starts from them too.
var badFaultSpecs = []string{"", "read.err", "read.err=2", "read.err=-0.1", "bogus=1", "read.delay=fast", "read.err=NaN", "read.delay=-5ms"}

func TestParseFaultSpec(t *testing.T) {
	fs, err := ParseFaultSpec("seed=7,tier=lustre,read.err=0.25,read.corrupt=0.5,read.trunc=0.1,read.delay=2ms,write.err=0.3,write.crash=1")
	if err != nil {
		t.Fatal(err)
	}
	want := FaultSpec{
		Seed: 7, Tier: "lustre",
		ReadErr: 0.25, ReadCorrupt: 0.5, ReadTrunc: 0.1, ReadDelay: 2 * time.Millisecond,
		WriteErr: 0.3, WriteCrash: 1,
	}
	if fs != want {
		t.Fatalf("spec = %+v, want %+v", fs, want)
	}
	for _, bad := range badFaultSpecs {
		if _, err := ParseFaultSpec(bad); err == nil {
			t.Errorf("spec %q accepted", bad)
		}
	}
}

// TestFaultBackendDeterministic replays the same op sequence against two
// identically-seeded fault backends and expects identical outcomes.
func TestFaultBackendDeterministic(t *testing.T) {
	run := func() []string {
		inner := NewMemBackend()
		fb := NewFaultBackend(inner, FaultSpec{Seed: 42, ReadErr: 0.3, ReadCorrupt: 0.3, ReadTrunc: 0.2})
		if err := inner.Put("k", payload(100)); err != nil {
			t.Fatal(err)
		}
		var out []string
		for i := 0; i < 50; i++ {
			data, err := fb.Get("k")
			switch {
			case err != nil:
				out = append(out, "err")
			default:
				out = append(out, fmt.Sprintf("%d:%x", len(data), data[:min(4, len(data))]))
			}
		}
		return out
	}
	a, b := run(), run()
	if strings.Join(a, ",") != strings.Join(b, ",") {
		t.Fatalf("same seed diverged:\n%v\n%v", a, b)
	}
}

// TestFaultReadDelayHonorsCancel puts a generous injected read delay in the
// path and cancels immediately: the read must return with the cancellation
// error in test time, not after waiting out the delay.
func TestFaultReadDelayHonorsCancel(t *testing.T) {
	h := TitanTwoTier(0)
	if _, err := h.Put(context.Background(), "k", payload(256), 0, 1); err != nil {
		t.Fatal(err)
	}
	if n, err := h.InjectFaults("seed=1,read.delay=30s"); err != nil || n != 2 {
		t.Fatalf("InjectFaults = %d, %v", n, err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, _, err := h.Get(ctx, "k", 1)
		done <- err
	}()
	// Let the read reach the injected delay, then cancel under it.
	time.Sleep(10 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("Get under cancelled delay: %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Get blocked on the injected delay despite cancellation")
	}

	// An already-cancelled ctx must fail fast on the ranged path too.
	ctx2, cancel2 := context.WithCancel(context.Background())
	cancel2()
	start := time.Now()
	if _, _, err := h.GetRange(ctx2, "k", 0, 16, 1); !errors.Is(err, context.Canceled) {
		t.Fatalf("GetRange with pre-cancelled ctx: %v, want context.Canceled", err)
	}
	if time.Since(start) > time.Second {
		t.Fatalf("pre-cancelled GetRange took %v", time.Since(start))
	}
}

// TestRetryRidesOutTransientFaults injects a moderate transient-error rate
// and checks the hierarchy's backoff loop converges to the right bytes.
func TestRetryRidesOutTransientFaults(t *testing.T) {
	h := TitanTwoTier(0)
	data := payload(256)
	if _, err := h.Put(context.Background(), "k", data, 0, 1); err != nil {
		t.Fatal(err)
	}
	if n, err := h.InjectFaults("seed=3,read.err=0.4"); err != nil || n != 2 {
		t.Fatalf("InjectFaults = %d, %v", n, err)
	}
	h.SetRetryPolicy(RetryPolicy{Attempts: 10, BaseDelay: time.Microsecond, MaxDelay: 10 * time.Microsecond})
	for i := 0; i < 30; i++ {
		got, _, err := h.Get(context.Background(), "k", 1)
		if err != nil {
			t.Fatalf("read %d: %v", i, err)
		}
		if !bytes.Equal(got, data) {
			t.Fatalf("read %d: bytes differ", i)
		}
	}
}

// TestInjectedCorruptionCaughtByChecksum drives random bit flips and
// truncations through the full read path: every read either returns the
// exact bytes (fault missed the op, or the retry re-read clean data) or a
// typed error — never silently wrong data.
func TestInjectedCorruptionCaughtByChecksum(t *testing.T) {
	h := TitanTwoTier(0)
	data := payload(4096)
	if _, err := h.Put(context.Background(), "k", data, 0, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := h.InjectFaults("seed=11,read.corrupt=0.5,read.trunc=0.2"); err != nil {
		t.Fatal(err)
	}
	h.SetRetryPolicy(fastRetry)
	sawCorrupt := false
	for i := 0; i < 60; i++ {
		got, _, err := h.Get(context.Background(), "k", 1)
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("read %d: unexpected error %v", i, err)
			}
			sawCorrupt = true
			continue
		}
		if !bytes.Equal(got, data) {
			t.Fatalf("read %d: SILENT corruption — wrong bytes with nil error", i)
		}
	}
	if !sawCorrupt {
		t.Fatal("fault injection never produced a detected corruption; spec too weak")
	}
}

// TestInjectFaultsTierScoped checks the tier filter: faults on lustre leave
// tmpfs reads untouched.
func TestInjectFaultsTierScoped(t *testing.T) {
	h := TitanTwoTier(0)
	if _, err := h.Put(context.Background(), "fastkey", payload(64), 0, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := h.Put(context.Background(), "slowkey", payload(64), 1, 1); err != nil {
		t.Fatal(err)
	}
	if n, err := h.InjectFaults("seed=1,tier=lustre,read.err=1"); err != nil || n != 1 {
		t.Fatalf("InjectFaults = %d, %v", n, err)
	}
	h.SetRetryPolicy(fastRetry)
	if _, _, err := h.Get(context.Background(), "fastkey", 1); err != nil {
		t.Fatalf("tmpfs read hit by lustre-scoped faults: %v", err)
	}
	if _, _, err := h.Get(context.Background(), "slowkey", 1); !errors.Is(err, ErrTransient) {
		t.Fatalf("lustre read err = %v, want ErrTransient", err)
	}
	if n, err := h.InjectFaults("seed=1,tier=nosuch,read.err=1"); err != nil || n != 0 {
		t.Fatalf("unknown tier matched %d, %v", n, err)
	}
}

// TestPutFallsThroughFlakyTier: a transient write fault on the preferred
// tier must not fail the Put — the write lands on the next tier, like a
// capacity bypass.
func TestPutFallsThroughFlakyTier(t *testing.T) {
	h := TitanTwoTier(0)
	if _, err := h.InjectFaults("seed=1,tier=tmpfs,write.err=1"); err != nil {
		t.Fatal(err)
	}
	p, err := h.Put(context.Background(), "k", payload(100), 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if p.TierName != "lustre" {
		t.Fatalf("placed on %s, want lustre", p.TierName)
	}
	if len(p.Bypassed) != 1 || p.Bypassed[0] != "tmpfs" {
		t.Fatalf("Bypassed = %v, want [tmpfs]", p.Bypassed)
	}
	got, _, err := h.Get(context.Background(), "k", 1)
	if err != nil || !bytes.Equal(got, payload(100)) {
		t.Fatalf("read back after bypass: %v", err)
	}
}

// TestAttemptCountInTerminalError: the satellite fix — when the retry
// budget is spent, the surfaced error says how many attempts were burned
// and still unwraps to the underlying cause.
func TestAttemptCountInTerminalError(t *testing.T) {
	h := TitanTwoTier(0)
	if _, err := h.Put(context.Background(), "k", payload(10), 0, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := h.InjectFaults("seed=1,read.err=1"); err != nil {
		t.Fatal(err)
	}
	h.SetRetryPolicy(RetryPolicy{Attempts: 3, BaseDelay: time.Microsecond, MaxDelay: 2 * time.Microsecond})
	_, _, err := h.Get(context.Background(), "k", 1)
	if !errors.Is(err, ErrTransient) {
		t.Fatalf("err = %v, want ErrTransient", err)
	}
	if !strings.Contains(err.Error(), "3 attempts") {
		t.Fatalf("terminal error %q does not report the attempt count", err)
	}
}

// TestFileBackendCrashConsistency kills a put mid-write through the fault
// backend and proves the previous value still reads back, both live and
// after a fresh open (which also sweeps the torn temp).
func TestFileBackendCrashConsistency(t *testing.T) {
	dir := t.TempDir()
	fb, err := NewFileBackend(dir)
	if err != nil {
		t.Fatal(err)
	}
	old := payload(128)
	if err := fb.Put("k", old); err != nil {
		t.Fatal(err)
	}
	faulty := NewFaultBackend(fb, FaultSpec{Seed: 5, WriteCrash: 1})
	if err := faulty.Put("k", payload(256)); !errors.Is(err, ErrTransient) {
		t.Fatalf("crashed put err = %v, want ErrTransient", err)
	}
	got, err := fb.Get("k")
	if err != nil || !bytes.Equal(got, old) {
		t.Fatalf("old value damaged by crashed put: err=%v", err)
	}
	// Reopen: the torn temp is swept, the value survives, Used is truthful.
	fb2, err := NewFileBackend(dir)
	if err != nil {
		t.Fatal(err)
	}
	got, err = fb2.Get("k")
	if err != nil || !bytes.Equal(got, old) {
		t.Fatalf("old value lost across reopen: err=%v", err)
	}
	if keys := fb2.Keys(); len(keys) != 1 || keys[0] != "k" {
		t.Fatalf("Keys after crash = %v, want [k]", keys)
	}
	if fb2.Used() != int64(len(old)) {
		t.Fatalf("Used = %d, want %d", fb2.Used(), len(old))
	}
}

// TestFileBackendAtomicPutReplacesWhole: interrupting nothing, a normal Put
// over an existing key fully replaces it and leaves no temps behind.
func TestFileBackendAtomicPutReplacesWhole(t *testing.T) {
	dir := t.TempDir()
	fb, err := NewFileBackend(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := fb.Put("k", payload(100)); err != nil {
		t.Fatal(err)
	}
	next := payload(60)
	if err := fb.Put("k", next); err != nil {
		t.Fatal(err)
	}
	got, err := fb.Get("k")
	if err != nil || !bytes.Equal(got, next) {
		t.Fatalf("replacement: err=%v", err)
	}
	if fb.Used() != 60 {
		t.Fatalf("Used = %d, want 60", fb.Used())
	}
}
