package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// metricDef names one metric and its unit. The two tables below are the
// code's copy of BENCHMARK.json's end_to_end and per_layer lists;
// smoke_test.go fails when the file and the tables disagree.
type metricDef struct {
	name, unit string
}

// endToEnd lists what a user of Canopus feels. Every workload reports every
// one of them; what "operation" means on each workload is in README.md.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"payload_MBps", "MB/s"},
	{"op_p50_ms", "ms"},
	{"op_p95_ms", "ms"},
	{"first_view_p50_ms", "ms"},
	{"storage_bytes_per_raw_byte", "ratio"},
	{"modeled_io_ms_per_op", "ms"},
}

// ledgerMetrics are milliseconds per operation: the entries after the first
// sum to the first, the root span. A workload reports 0 for a layer it does
// not measure (README.md says which workload measures which).
var ledgerMetrics = []metricDef{
	{"core.root_ms", "ms"},
	{"core.op_self_ms", "ms"},
	{"decimate.ms_per_op", "ms"},
	{"delta.build_ms", "ms"},
	{"delta.compute_ms", "ms"},
	{"compress.encode_ms", "ms"},
	{"mesh.encode_ms", "ms"},
	{"bp.assemble_ms", "ms"},
	{"storage.put_ms", "ms"},
	{"core.open_reader_ms", "ms"},
	{"core.base_ms", "ms"},
	{"core.augment_ms", "ms"},
	{"core.region_ms", "ms"},
	{"core.tolerance_ms", "ms"},
	{"server.library_ms", "ms"},
	{"server.overhead_ms", "ms"},
}

// layerMetrics are rates, ratios and counts of single layers.
var layerMetrics = []metricDef{
	{"decimate.verts_per_s", "1/s"},
	{"decimate.allocs_per_vert", "count"},
	{"pq.push_pop_ns", "ns"},
	{"delta.compute_MBps", "MB/s"},
	{"delta.restore_MBps", "MB/s"},
	{"compress.encode_MBps", "MB/s"},
	{"compress.decode_MBps", "MB/s"},
	{"compress.ratio", "ratio"},
	{"compress.tile_cache_hit_ratio", "ratio"},
	{"mesh.decode_ms", "ms"},
	{"bp.open_us", "us"},
	{"adios.open_us", "us"},
	{"adios.page_cache_hit_ratio", "ratio"},
	{"adios.real_per_modeled_byte", "ratio"},
	{"storage.put_MBps", "MB/s"},
	{"storage.get_MBps", "MB/s"},
	{"storage.retries", "count"},
	{"storage.fast_tier_read_ratio", "ratio"},
	{"place.migrations", "count"},
	{"plan.for_level_us", "us"},
	{"plan.for_tolerance_us", "us"},
	{"plan.tolerance_bytes_ratio", "ratio"},
	{"engine.unit_overhead_us", "us"},
	{"core.reported_decimate_ms", "ms"},
	{"core.reported_delta_ms", "ms"},
	{"core.reported_compress_ms", "ms"},
	{"core.reported_decompress_ms", "ms"},
	{"core.reported_restore_ms", "ms"},
	{"core.allocs_per_op", "count"},
	{"core.alloc_MB_per_op", "MB"},
	{"obs.span_overhead_pct", "%"},
	{"server.wire_bytes_per_req", "bytes"},
	{"server.open_p50_ms", "ms"},
	{"server.open_p95_ms", "ms"},
	{"server.p99_ms", "ms"},
	{"server.throttled", "count"},
	{"server.gen_lag_p99_ms", "ms"},
	{"server.backlog_end", "count"},
	{"runtime.peak_heap_MB", "MB"},
	{"runtime.gc_pause_total_ms", "ms"},
	{"runtime.gc_cycles", "count"},
	{"harness.trace_overhead_pct", "%"},
}

// perLayer is everything the traced pass reports.
var perLayer = append(append([]metricDef(nil), ledgerMetrics...), layerMetrics...)

// result is what one run of one workload produced.
type result struct {
	workload  string
	values    map[string]float64
	samples   map[string]int // sample count behind a value, where it has one
	attempted int
	failed    int
	notes     []string // first few failure messages, for the human reader
}

func newResult(workload string) *result {
	return &result{workload: workload, values: map[string]float64{}, samples: map[string]int{}}
}

func (r *result) set(name string, v float64, n int) {
	r.values[name] = v
	r.samples[name] = n
}

// fail counts one failed operation or correctness check.
func (r *result) fail(format string, args ...any) {
	r.failed++
	if len(r.notes) < 8 {
		r.notes = append(r.notes, fmt.Sprintf(format, args...))
	}
}

// failN counts n failures that share one cause.
func (r *result) failN(n int, format string, args ...any) {
	r.fail(format, args...)
	r.failed += n - 1
}

// durations is a set of latencies collected in a timed phase.
type durations []time.Duration

func (d durations) sorted() durations {
	s := append(durations(nil), d...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s
}

func (d durations) sum() time.Duration {
	var s time.Duration
	for _, v := range d {
		s += v
	}
	return s
}

// quantileMs is the q-quantile in milliseconds by linear interpolation
// between order statistics, so a small sample does not snap to its maximum.
func (d durations) quantileMs(q float64) float64 {
	if len(d) == 0 {
		return 0
	}
	s := d.sorted()
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	frac := pos - float64(lo)
	return (float64(s[lo])*(1-frac) + float64(s[hi])*frac) / float64(time.Millisecond)
}

// tailMs is the tail latency the benchmark reports: the samples, in the order
// they were taken, are cut into consecutive blocks of at least minBlock, the
// q-quantile is taken within each block, and the median block is reported. A
// burst of interference from outside the program lands in one block and
// leaves the median block alone, which a single quantile over the whole phase
// does not: on this sandbox the plain p95 of serve_zipf moved by 25% between
// runs of the same code.
func (d durations) tailMs(q float64) float64 {
	const maxBlocks, minBlock = 9, 100
	blocks := min(maxBlocks, len(d)/minBlock)
	if blocks < 2 {
		return d.quantileMs(q)
	}
	per := make([]float64, blocks)
	for b := range per {
		per[b] = d[b*len(d)/blocks : (b+1)*len(d)/blocks].quantileMs(q)
	}
	return median(per)
}

func median(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(values, n=4) does (the exclusive method), which is how
// the spread of a metric between runs is judged.
func quartiles(vals []float64) (q1, q3 float64) {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0]
		}
		return 0, 0
	}
	at := func(k int) float64 {
		pos := float64(k*(n+1)) / 4 // 1-based position
		j := int(math.Floor(pos))
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		frac := pos - float64(j)
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	return at(1), at(3)
}
