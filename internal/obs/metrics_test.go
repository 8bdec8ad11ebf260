package obs

import (
	"encoding/json"
	"math"
	"sync"
	"testing"
)

func TestCounterAndFloatCounter(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("canopus_test_counter_total")
	c.Add(3)
	c.Inc()
	if got := c.Value(); got != 4 {
		t.Fatalf("counter = %d, want 4", got)
	}
	var f FloatCounter
	f.Add(0.25)
	f.Add(0.5)
	if got := f.Value(); got != 0.75 {
		t.Fatalf("float counter = %g, want 0.75", got)
	}
}

func TestRegistryIdempotentAndTypeSafe(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("canopus_test_shared_total")
	b := r.Counter("canopus_test_shared_total")
	if a != b {
		t.Fatal("same name should return the same counter instance")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("registering an existing name as a different type should panic")
		}
	}()
	r.Histogram("canopus_test_shared_total", nil)
}

func TestRegistryRejectsBadNames(t *testing.T) {
	bad := []string{
		"",
		"canopus",
		"canopus_",
		"canopus_storage",          // needs a <name> after the subsystem
		"storage_read_bytes",       // missing canopus_ prefix
		"canopus_Storage_bytes",    // uppercase
		"canopus_storage-bytes_ok", // hyphen
	}
	r := NewRegistry()
	for _, name := range bad {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("name %q should have been rejected", name)
				}
			}()
			r.Counter(name)
		}()
	}
}

func TestSanitizeSegment(t *testing.T) {
	cases := map[string]string{
		"tmpfs":        "tmpfs",
		"burst-buffer": "burst_buffer",
		"Burst Buffer": "burst_buffer",
		"--x--":        "x",
		"":             "unnamed",
	}
	for in, want := range cases {
		if got := SanitizeSegment(in); got != want {
			t.Errorf("SanitizeSegment(%q) = %q, want %q", in, got, want)
		}
	}
}

// TestHistogramBucketBoundaries pins the boundary semantics: an observation
// equal to a bound lands in that bound's bucket; observations above every
// bound land in the overflow bucket.
func TestHistogramBucketBoundaries(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("canopus_test_latency_seconds", []float64{1, 2, 4})
	for _, v := range []float64{0.5, 1, 1.5, 2, 3, 4, 5, 100} {
		h.Observe(v)
	}
	bounds, counts := h.Buckets()
	if len(bounds) != 3 || len(counts) != 4 {
		t.Fatalf("bounds %v counts %v", bounds, counts)
	}
	want := []int64{2, 2, 2, 2} // (≤1)=0.5,1; (1,2]=1.5,2; (2,4]=3,4; >4=5,100
	for i, w := range want {
		if counts[i] != w {
			t.Fatalf("bucket %d = %d, want %d (counts %v)", i, counts[i], w, counts)
		}
	}
	if h.Count() != 8 {
		t.Fatalf("count = %d, want 8", h.Count())
	}
	if sum := h.Sum(); math.Abs(sum-117) > 1e-9 {
		t.Fatalf("sum = %g, want 117", sum)
	}
	if q := h.Quantile(0.5); q < 0 || q > 2 {
		t.Fatalf("p50 = %g, want within (0,2]", q)
	}
	if q := h.Quantile(1); q != 4 {
		// rank 8 falls in the overflow bucket, which reports its lower bound.
		t.Fatalf("p100 = %g, want 4 (overflow lower bound)", q)
	}
}

func TestHistogramQuantileEmpty(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("canopus_test_empty_seconds", []float64{1})
	if q := h.Quantile(0.5); q != 0 {
		t.Fatalf("empty histogram p50 = %g, want 0", q)
	}
}

// TestSnapshotWhileWriting hammers every metric type from writer goroutines
// while concurrent snapshots marshal the registry — the exact pattern of a
// live /debug/metrics scrape during a retrieval. Run under -race this is the
// snapshot-consistency acceptance test.
func TestSnapshotWhileWriting(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("canopus_test_writes_total")
	h := r.Histogram("canopus_test_op_seconds", nil)

	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				c.Inc()
				h.Observe(float64(i%10) / 100)
				// New registrations race snapshots too.
				r.Counter("canopus_test_dynamic_total").Inc()
			}
		}()
	}
	for i := 0; i < 50; i++ {
		snap := r.Snapshot()
		if _, err := json.Marshal(snap); err != nil {
			t.Fatalf("snapshot %d does not marshal: %v", i, err)
		}
	}
	wg.Wait()

	snap := r.Snapshot()
	total, ok := snap["canopus_test_writes_total"].(int64)
	if !ok || total <= 0 {
		t.Fatalf("final snapshot writes_total = %v", snap["canopus_test_writes_total"])
	}
	hs, ok := snap["canopus_test_op_seconds"].(HistogramSnapshot)
	if !ok || hs.Count <= 0 {
		t.Fatalf("final snapshot histogram = %#v", snap["canopus_test_op_seconds"])
	}
}

func TestWriteMetricsJSONEmptyPathNoop(t *testing.T) {
	if err := WriteMetricsJSON(""); err != nil {
		t.Fatalf("empty path should be a no-op, got %v", err)
	}
}
