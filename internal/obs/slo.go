package obs

import (
	"sort"
	"sync"
	"time"
)

// SLO surface: per-operation latency histograms get declared objectives
// ("p99 of canopus_core_retrieve_seconds stays under 250ms"), and
// /debug/slo reports each objective against the live histogram — met or
// not, with the measured quantile and, when the slow-trace pinner has
// caught tail samples, the exemplar links into /debug/trace/slow. This is
// deliberately an evaluation surface, not an alerting system: Canopus
// tools are batch/benchmark processes, so "are we inside the objective
// right now" answered over HTTP is the operational need.

// Objective declares a latency target for one histogram metric.
type Objective struct {
	Metric        string  `json:"metric"`
	Quantile      float64 `json:"quantile"`
	TargetSeconds float64 `json:"target_seconds"`
}

// SLOStatus is one objective evaluated against the live histogram.
type SLOStatus struct {
	Objective
	Count         int64      `json:"count"`
	ActualSeconds float64    `json:"actual_seconds"`
	Met           bool       `json:"met"`
	Exemplars     []Exemplar `json:"exemplars,omitempty"`
}

var (
	sloMu         sync.Mutex
	sloObjectives = map[string]Objective{}
)

// SetObjective declares (or replaces) the latency objective for metric: the
// q-quantile must stay at or under target. The metric name must follow the
// naming convention; it need not be registered yet — evaluation skips
// objectives whose histogram has not appeared.
func SetObjective(metric string, q float64, target time.Duration) {
	if err := ValidMetricName(metric); err != nil {
		panic(err)
	}
	if q <= 0 || q > 1 {
		q = 0.99
	}
	sloMu.Lock()
	sloObjectives[metric] = Objective{Metric: metric, Quantile: q, TargetSeconds: target.Seconds()}
	sloMu.Unlock()
}

// Objectives lists the declared objectives, sorted by metric name.
func Objectives() []Objective {
	sloMu.Lock()
	defer sloMu.Unlock()
	out := make([]Objective, 0, len(sloObjectives))
	for _, o := range sloObjectives {
		out = append(out, o)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Metric < out[j].Metric })
	return out
}

// SLOReport evaluates every declared objective whose histogram exists in the
// default registry. An objective with no observations yet reports Met=true
// (vacuously inside the target).
func SLOReport() []SLOStatus {
	objs := Objectives()
	out := make([]SLOStatus, 0, len(objs))
	for _, o := range objs {
		h := lookupHistogram(o.Metric)
		if h == nil {
			continue
		}
		st := SLOStatus{
			Objective:     o,
			Count:         h.Count(),
			ActualSeconds: h.Quantile(o.Quantile),
			Exemplars:     h.Exemplars(),
		}
		st.Met = st.ActualSeconds <= o.TargetSeconds
		out = append(out, st)
	}
	return out
}

// lookupHistogram fetches an already-registered histogram by name without
// creating one (Registry.Histogram would).
func lookupHistogram(name string) *Histogram {
	Default.mu.RLock()
	defer Default.mu.RUnlock()
	h, _ := Default.metrics[name].(*Histogram)
	return h
}

// ObserveLatency records seconds into h; when the slow-trace pinner is armed
// and this observation qualifies as slow, the span's trace ID rides along as
// the bucket's exemplar. The span's root will be pinned into the slow-trace
// ring when it ends (the root outlives this operation, so its duration is at
// least this one's), which is what makes the exemplar link resolvable via
// /debug/trace/slow?id=.
func ObserveLatency(h *Histogram, span *Span, seconds float64) {
	if h == nil {
		return
	}
	if th := SlowTraceThreshold(); th > 0 && seconds >= th.Seconds() {
		h.ObserveWithExemplar(seconds, span.TraceID())
		return
	}
	h.Observe(seconds)
}
