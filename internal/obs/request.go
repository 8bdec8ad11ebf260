package obs

import (
	"context"
	"fmt"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// Request is the per-call cost accumulator: one Retrieve / RetrieveRegion /
// RetrieveStep / Subscribe carries exactly one Request through its context,
// and every subsystem the call crosses folds its contribution in — storage's
// retry loop attributes per-tier reads and retries, and core folds each
// read cost (modeled/real bytes and I/O seconds, cache hits, decompress and
// restore seconds) into the request and the view's PhaseTimings in one
// statement. When the owning call
// finishes, Report() freezes the totals into a CostReport that rides back on
// the View/RegionView and is mirrored onto the root span's attributes.
//
// The nil *Request is a valid no-op (same pattern as *Span), so instrumented
// code attributes unconditionally and pays nothing when no request is open.
// Accumulators are atomics and the per-tier map is mutex-guarded because
// parts of a retrieval (parallel tile decode, prefetch) fold from concurrent
// goroutines.
type Request struct {
	op    string
	start time.Time

	modeledBytes atomic.Int64
	realBytes    atomic.Int64
	ioSeconds    FloatCounter
	decompressS  FloatCounter
	restoreS     FloatCounter
	cacheHits    atomic.Int64
	cacheMisses  atomic.Int64
	tileHits     atomic.Int64
	tileMisses   atomic.Int64
	retries      atomic.Int64

	mu       sync.Mutex
	tiers    map[string]*TierCost
	level    int
	hasLevel bool
	bound    float64
	hasBound bool
	degraded string
}

// TierCost is one storage tier's share of a request: how many backend reads
// landed there, how many bytes they returned, and how many retry attempts
// the tier's transient faults cost.
type TierCost struct {
	Reads   int64 `json:"reads"`
	Bytes   int64 `json:"bytes"`
	Retries int64 `json:"retries,omitempty"`
}

// CostReport is the frozen per-request bill: what one retrieval cost, where,
// and why it ended the way it did. Views return it on their Cost field.
type CostReport struct {
	Op              string              `json:"op"`
	DurationSeconds float64             `json:"duration_seconds"`
	ModeledBytes    int64               `json:"modeled_bytes"`
	RealBytes       int64               `json:"real_bytes"`
	IOSeconds       float64             `json:"io_seconds"`
	DecompressSecs  float64             `json:"decompress_seconds"`
	RestoreSecs     float64             `json:"restore_seconds"`
	CacheHits       int64               `json:"cache_hits"`
	CacheMisses     int64               `json:"cache_misses"`
	TileCacheHits   int64               `json:"tile_cache_hits,omitempty"`
	TileCacheMisses int64               `json:"tile_cache_misses,omitempty"`
	Retries         int64               `json:"retries"`
	Tiers           map[string]TierCost `json:"tiers,omitempty"`
	Level           int                 `json:"level,omitempty"`
	ErrorBound      float64             `json:"error_bound,omitempty"`
	Degraded        bool                `json:"degraded,omitempty"`
	DegradedReason  string              `json:"degraded_reason,omitempty"`
	TraceID         uint64              `json:"trace_id,omitempty"`
}

// reqKey carries the active request through context.Context.
type reqKey struct{}

// BeginRequest opens a request named op and returns a context carrying it.
// If ctx already carries a request (a nested retrieval inside Subscribe, a
// tolerance search calling Retrieve per level), the existing request is
// returned with owned=false: the nested call folds into its parent's bill
// and must not Report it.
func BeginRequest(ctx context.Context, op string) (context.Context, *Request, bool) {
	if r := RequestFrom(ctx); r != nil {
		return ctx, r, false
	}
	r := &Request{op: op, start: time.Now()}
	return context.WithValue(ctx, reqKey{}, r), r, true
}

// RequestFrom returns the request carried by ctx, or nil.
func RequestFrom(ctx context.Context) *Request {
	r, _ := ctx.Value(reqKey{}).(*Request)
	return r
}

// AddIO folds one handle's accumulated I/O: modeled bytes (what the cost
// model charged), real bytes (what the backend actually returned), and
// modeled seconds.
func (r *Request) AddIO(modeled, real int64, seconds float64) {
	if r == nil {
		return
	}
	r.modeledBytes.Add(modeled)
	r.realBytes.Add(real)
	r.ioSeconds.Add(seconds)
}

// AddTierRead attributes one successful backend read of n bytes to tier.
func (r *Request) AddTierRead(tier string, n int) {
	if r == nil {
		return
	}
	r.mu.Lock()
	t := r.tierLocked(tier)
	t.Reads++
	t.Bytes += int64(n)
	r.mu.Unlock()
}

// AddTierRetry attributes one retry attempt (a failed read that will be
// reattempted) to tier.
func (r *Request) AddTierRetry(tier string) {
	if r == nil {
		return
	}
	r.retries.Add(1)
	r.mu.Lock()
	r.tierLocked(tier).Retries++
	r.mu.Unlock()
}

func (r *Request) tierLocked(tier string) *TierCost {
	if r.tiers == nil {
		r.tiers = make(map[string]*TierCost, 4)
	}
	t := r.tiers[tier]
	if t == nil {
		t = &TierCost{}
		r.tiers[tier] = t
	}
	return t
}

// AddDecompress folds decode (decompression) wall-clock seconds.
func (r *Request) AddDecompress(seconds float64) {
	if r == nil {
		return
	}
	r.decompressS.Add(seconds)
}

// AddRestore folds restoration (delta-apply / interpolation) seconds.
func (r *Request) AddRestore(seconds float64) {
	if r == nil {
		return
	}
	r.restoreS.Add(seconds)
}

// AddCache folds page-cache hit/miss counts observed by one handle.
func (r *Request) AddCache(hits, misses int64) {
	if r == nil {
		return
	}
	r.cacheHits.Add(hits)
	r.cacheMisses.Add(misses)
}

// AddTileCache folds decoded-tile-cache hit/miss counts observed by one
// decode pass (core's tile read path). A hit means the decompress work for
// that tile was skipped entirely; the byte fetch is charged regardless.
func (r *Request) AddTileCache(hits, misses int64) {
	if r == nil {
		return
	}
	r.tileHits.Add(hits)
	r.tileMisses.Add(misses)
}

// SetLevel records the achieved refinement level.
func (r *Request) SetLevel(level int) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.level, r.hasLevel = level, true
	r.mu.Unlock()
}

// SetErrorBound records the achieved error bound.
func (r *Request) SetErrorBound(bound float64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.bound, r.hasBound = bound, true
	r.mu.Unlock()
}

// SetDegraded records that the request was served degraded and why. The
// first reason wins (it is the one that triggered degradation).
func (r *Request) SetDegraded(reason string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	if r.degraded == "" {
		r.degraded = reason
	}
	r.mu.Unlock()
}

// Report freezes the request into a CostReport and, when span is non-nil,
// mirrors the headline numbers onto it as attributes so the bill shows up in
// trace dumps too. The owning call (BeginRequest owned=true) calls it once,
// at the end; nested folds before that point are all included.
func (r *Request) Report(span *Span) *CostReport {
	if r == nil {
		return nil
	}
	rep := &CostReport{
		Op:              r.op,
		DurationSeconds: time.Since(r.start).Seconds(),
		ModeledBytes:    r.modeledBytes.Load(),
		RealBytes:       r.realBytes.Load(),
		IOSeconds:       r.ioSeconds.Value(),
		DecompressSecs:  r.decompressS.Value(),
		RestoreSecs:     r.restoreS.Value(),
		CacheHits:       r.cacheHits.Load(),
		CacheMisses:     r.cacheMisses.Load(),
		TileCacheHits:   r.tileHits.Load(),
		TileCacheMisses: r.tileMisses.Load(),
		Retries:         r.retries.Load(),
		TraceID:         span.TraceID(),
	}
	r.mu.Lock()
	if len(r.tiers) > 0 {
		rep.Tiers = make(map[string]TierCost, len(r.tiers))
		for k, v := range r.tiers {
			rep.Tiers[k] = *v
		}
	}
	if r.hasLevel {
		rep.Level = r.level
	}
	if r.hasBound {
		rep.ErrorBound = r.bound
	}
	if r.degraded != "" {
		rep.Degraded = true
		rep.DegradedReason = r.degraded
	}
	r.mu.Unlock()

	if span != nil {
		span.SetAttr("cost.modeled_bytes", strconv.FormatInt(rep.ModeledBytes, 10))
		span.SetAttr("cost.real_bytes", strconv.FormatInt(rep.RealBytes, 10))
		span.SetAttr("cost.io_seconds", fmt.Sprintf("%.6f", rep.IOSeconds))
		span.SetAttr("cost.decompress_seconds", fmt.Sprintf("%.6f", rep.DecompressSecs))
		span.SetAttr("cost.restore_seconds", fmt.Sprintf("%.6f", rep.RestoreSecs))
		span.SetAttrInt("cost.cache_hits", int(rep.CacheHits))
		span.SetAttrInt("cost.cache_misses", int(rep.CacheMisses))
		if rep.TileCacheHits > 0 || rep.TileCacheMisses > 0 {
			span.SetAttrInt("cost.tile_cache_hits", int(rep.TileCacheHits))
			span.SetAttrInt("cost.tile_cache_misses", int(rep.TileCacheMisses))
		}
		if rep.Retries > 0 {
			span.SetAttrInt("cost.retries", int(rep.Retries))
		}
		for _, name := range sortedTierNames(rep.Tiers) {
			t := rep.Tiers[name]
			span.SetAttr("cost.tier."+SanitizeSegment(name),
				fmt.Sprintf("reads=%d bytes=%d retries=%d", t.Reads, t.Bytes, t.Retries))
		}
		if rep.Degraded {
			span.SetAttr("cost.degraded", rep.DegradedReason)
		}
	}
	return rep
}

func sortedTierNames(m map[string]TierCost) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
