// Package obs is Canopus's dependency-free observability layer: process-wide
// typed metrics (counters and histograms), hierarchical trace spans
// carried through context.Context, and a live debug HTTP surface
// (net/http/pprof, expvar, trace dumps) the command-line tools expose behind
// -debug-addr.
//
// The paper's whole argument is a measurable trade between accuracy and
// retrieval time across storage tiers (§IV breaks retrievals into read /
// decompress / restore phases); this package makes that decomposition a
// first-class, machine-readable output instead of ad-hoc struct fields.
// Everything here is stdlib-only and race-safe: metrics are atomics,
// spans are mutex-guarded trees, and a snapshot taken mid-write observes a
// consistent (if instantaneously stale) view.
//
// Metric names follow the convention canopus_<subsystem>_<name>, all
// lowercase [a-z0-9_], e.g. canopus_storage_tmpfs_read_bytes. The naming
// lint in lint_test.go enforces the convention over every metric the
// instrumented packages register.
package obs

import (
	"encoding/json"
	"expvar"
	"fmt"
	"math"
	"os"
	"regexp"
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing int64, safe for concurrent use.
type Counter struct{ v atomic.Int64 }

// Add accumulates n (n may be any value, but counters are conventionally
// monotonic).
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value reports the current total.
func (c *Counter) Value() int64 { return c.v.Load() }

// FloatCounter accumulates a float64 total (a histogram's sum, a request's
// seconds) with lock-free compare-and-swap adds.
type FloatCounter struct{ bits atomic.Uint64 }

// Add accumulates v.
func (c *FloatCounter) Add(v float64) {
	for {
		old := c.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if c.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value reports the accumulated total.
func (c *FloatCounter) Value() float64 { return math.Float64frombits(c.bits.Load()) }

// Histogram counts observations into fixed buckets (upper-bound inclusive,
// Prometheus-style cumulative on export is left to consumers; buckets here
// are disjoint). It also tracks the running sum and count so means and
// bucket-interpolated quantiles can be derived. All operations are atomic.
type Histogram struct {
	bounds []float64      // ascending upper bounds; len(counts) == len(bounds)+1
	counts []atomic.Int64 // counts[i] observes (bounds[i-1], bounds[i]]
	count  atomic.Int64
	sum    FloatCounter

	// exemplars maps bucket index -> the most recent exemplar observed into
	// that bucket (mutex-guarded; only the SLO path writes it, so the plain
	// Observe hot path never touches the lock).
	exMu      sync.Mutex
	exemplars map[int]Exemplar
}

// Exemplar links one histogram bucket to the trace that landed an
// observation there — the bridge from "the p99 is high" to "here is a
// retained slow trace showing why".
type Exemplar struct {
	// Bucket is the index into the histogram's buckets (len(bounds) =
	// overflow); UpperBound is that bucket's bound (-1 for the unbounded
	// overflow bucket — +Inf does not survive JSON encoding).
	Bucket     int     `json:"bucket"`
	UpperBound float64 `json:"upper_bound"`
	// Value is the observed sample; TraceID identifies the pinned trace
	// (serve it via /debug/trace/slow?id=).
	Value   float64 `json:"value"`
	TraceID uint64  `json:"trace_id"`
}

// DefSecondsBuckets is the default latency bucket layout: exponential from
// 100µs to ~100s, a spread wide enough for both tmpfs and campaign-store
// simulated costs.
var DefSecondsBuckets = []float64{
	1e-4, 2.5e-4, 5e-4, 1e-3, 2.5e-3, 5e-3, 1e-2, 2.5e-2, 5e-2,
	0.1, 0.25, 0.5, 1, 2.5, 5, 10, 25, 50, 100,
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v
	h.counts[i].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
}

// ObserveWithExemplar records one sample and, when traceID is non-zero,
// attaches it as the bucket's exemplar (latest wins). Core's SLO surface
// uses it for observations whose trace was pinned into the slow-trace ring,
// so a tail-latency bucket links straight to a retained trace.
func (h *Histogram) ObserveWithExemplar(v float64, traceID uint64) {
	h.Observe(v)
	if traceID == 0 {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v)
	ub := -1.0
	if i < len(h.bounds) {
		ub = h.bounds[i]
	}
	h.exMu.Lock()
	if h.exemplars == nil {
		h.exemplars = make(map[int]Exemplar, 4)
	}
	h.exemplars[i] = Exemplar{Bucket: i, UpperBound: ub, Value: v, TraceID: traceID}
	h.exMu.Unlock()
}

// Exemplars returns the per-bucket exemplars, ascending by bucket index.
func (h *Histogram) Exemplars() []Exemplar {
	h.exMu.Lock()
	out := make([]Exemplar, 0, len(h.exemplars))
	for _, e := range h.exemplars {
		out = append(out, e)
	}
	h.exMu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Bucket < out[j].Bucket })
	return out
}

// Count reports the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum reports the running total of observed values.
func (h *Histogram) Sum() float64 { return h.sum.Value() }

// Buckets returns the bucket upper bounds and the per-bucket counts; the
// final count is the overflow bucket (observations above every bound).
func (h *Histogram) Buckets() (bounds []float64, counts []int64) {
	counts = make([]int64, len(h.counts))
	for i := range h.counts {
		counts[i] = h.counts[i].Load()
	}
	return h.bounds, counts
}

// Quantile estimates the q-quantile (0 <= q <= 1) by linear interpolation
// inside the bucket holding it. Returns 0 for an empty histogram; the
// overflow bucket reports its lower bound.
func (h *Histogram) Quantile(q float64) float64 {
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	rank := q * float64(total)
	var seen float64
	lower := 0.0
	for i := range h.counts {
		n := float64(h.counts[i].Load())
		if seen+n >= rank && n > 0 {
			if i >= len(h.bounds) {
				return lower // overflow bucket: no finite upper bound
			}
			frac := (rank - seen) / n
			return lower + frac*(h.bounds[i]-lower)
		}
		seen += n
		if i < len(h.bounds) {
			lower = h.bounds[i]
		}
	}
	return lower
}

// metricNameRE is the canopus_<subsystem>_<name> convention.
var metricNameRE = regexp.MustCompile(`^canopus_[a-z0-9]+(_[a-z0-9]+)+$`)

// ValidMetricName reports whether name follows the naming convention.
func ValidMetricName(name string) error {
	if !metricNameRE.MatchString(name) {
		return fmt.Errorf("obs: metric name %q violates canopus_<subsystem>_<name> ([a-z0-9_])", name)
	}
	return nil
}

// sanitizeRE collapses anything outside [a-z0-9] when deriving metric name
// segments from free-form identifiers (tier names like "burst-buffer").
var sanitizeRE = regexp.MustCompile(`[^a-z0-9]+`)

// SanitizeSegment lowercases s and replaces every run of non-alphanumeric
// characters with one underscore, yielding a legal metric-name segment.
func SanitizeSegment(s string) string {
	out := sanitizeRE.ReplaceAllString(toLower(s), "_")
	for len(out) > 0 && out[0] == '_' {
		out = out[1:]
	}
	for len(out) > 0 && out[len(out)-1] == '_' {
		out = out[:len(out)-1]
	}
	if out == "" {
		return "unnamed"
	}
	return out
}

func toLower(s string) string {
	b := []byte(s)
	for i, c := range b {
		if c >= 'A' && c <= 'Z' {
			b[i] = c + ('a' - 'A')
		}
	}
	return string(b)
}

// Registry holds named metrics. Registration is idempotent per (name, type):
// asking twice for the same counter returns the same instance; asking for an
// existing name with a different type panics, as does an invalid name — both
// are programming errors the lint test surfaces.
type Registry struct {
	mu      sync.RWMutex
	metrics map[string]any
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{metrics: make(map[string]any)}
}

// Default is the process-wide registry every instrumented package uses.
var Default = NewRegistry()

func register[T any](r *Registry, name string, make func() T) T {
	if err := ValidMetricName(name); err != nil {
		panic(err)
	}
	r.mu.RLock()
	existing, ok := r.metrics[name]
	r.mu.RUnlock()
	if !ok {
		r.mu.Lock()
		existing, ok = r.metrics[name]
		if !ok {
			existing = make()
			r.metrics[name] = existing
		}
		r.mu.Unlock()
	}
	m, ok := existing.(T)
	if !ok {
		panic(fmt.Sprintf("obs: metric %q already registered as %T", name, existing))
	}
	return m
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	return register(r, name, func() *Counter { return &Counter{} })
}

// Histogram returns the named histogram, creating it on first use with the
// given ascending bucket bounds (nil means DefSecondsBuckets). Bounds are
// fixed at creation; later calls ignore the argument.
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	return register(r, name, func() *Histogram {
		if bounds == nil {
			bounds = DefSecondsBuckets
		}
		cp := append([]float64(nil), bounds...)
		if !sort.Float64sAreSorted(cp) {
			panic(fmt.Sprintf("obs: histogram %q bounds not ascending: %v", name, cp))
		}
		return &Histogram{bounds: cp, counts: make([]atomic.Int64, len(cp)+1)}
	})
}

// HistogramSnapshot is the JSON shape of one exported histogram.
type HistogramSnapshot struct {
	Count   int64     `json:"count"`
	Sum     float64   `json:"sum"`
	Bounds  []float64 `json:"bounds"`
	Buckets []int64   `json:"buckets"`
	P50     float64   `json:"p50"`
	P99     float64   `json:"p99"`
	// Exemplars links buckets to pinned slow traces, when any were observed.
	Exemplars []Exemplar `json:"exemplars,omitempty"`
}

// Snapshot returns a JSON-marshalable view of every metric. Values are read
// atomically per metric; the snapshot as a whole is not a single atomic cut,
// which is fine for monitoring (each number is internally consistent).
func (r *Registry) Snapshot() map[string]any {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make(map[string]any, len(r.metrics))
	for name, m := range r.metrics {
		switch v := m.(type) {
		case *Counter:
			out[name] = v.Value()
		case *Histogram:
			bounds, counts := v.Buckets()
			out[name] = HistogramSnapshot{
				Count:     v.Count(),
				Sum:       v.Sum(),
				Bounds:    bounds,
				Buckets:   counts,
				P50:       v.Quantile(0.5),
				P99:       v.Quantile(0.99),
				Exemplars: v.Exemplars(),
			}
		}
	}
	return out
}

// Package-level conveniences on Default — what the instrumented packages use.

// NewCounter registers (or fetches) a counter on the default registry.
func NewCounter(name string) *Counter { return Default.Counter(name) }

// NewHistogram registers (or fetches) a histogram on the default registry.
func NewHistogram(name string, bounds []float64) *Histogram {
	return Default.Histogram(name, bounds)
}

// SnapshotDoc is the top-level shape -metrics-json writes and /debug/metrics
// serves: every registered metric, the most recent completed trace trees, the
// pinned slow traces, and the flight recorder's retained events.
type SnapshotDoc struct {
	Metrics    map[string]any `json:"metrics"`
	Traces     []SpanDump     `json:"traces,omitempty"`
	SlowTraces []SpanDump     `json:"slow_traces,omitempty"`
	Events     []Event        `json:"events,omitempty"`
}

// TakeSnapshot captures the default registry, the last n trace trees (n <= 0
// means all retained), every pinned slow trace, and every retained event.
func TakeSnapshot(n int) SnapshotDoc {
	return SnapshotDoc{
		Metrics:    Default.Snapshot(),
		Traces:     LastTraces(n),
		SlowTraces: SlowTraces(0),
		Events:     Events(nil, 0),
	}
}

// WriteMetricsJSON writes a TakeSnapshot document to path, indented. An
// empty path is a no-op, so CLI tools can call it unconditionally.
func WriteMetricsJSON(path string) error {
	if path == "" {
		return nil
	}
	doc := TakeSnapshot(0)
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return fmt.Errorf("obs: marshal metrics snapshot: %w", err)
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func init() {
	// One expvar under "canopus": the full metric snapshot, so -debug-addr's
	// stock /debug/vars page carries every registered metric without
	// per-metric Publish bookkeeping.
	expvar.Publish("canopus", expvar.Func(func() any { return Default.Snapshot() }))
}
