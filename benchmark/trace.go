package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one record of the traced pass. Spans are taken by the benchmark's
// own code around its calls into the layers' public functions; nothing under
// internal/ is instrumented by this benchmark.
//
// One root span per operation wraps the public end-to-end call. Child spans
// wrap calls the workload itself makes as part of the operation. Probe spans
// re-run one layer's public function on the operation's inputs; they hang
// under a "probe" span that is a sibling of the root and shares its op_id,
// so they never count towards the root's duration.
type span struct {
	Name    string `json:"name"`
	OpID    int    `json:"op_id"`
	ID      int    `json:"id"`
	Parent  int    `json:"parent"` // 0: none
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. The nil tracer records
// nothing, which is how the untraced pass runs the same code.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// start opens a span and returns its id (0 on the nil tracer).
func (t *tracer) start(name string, op, parent int) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans = append(t.spans, span{Name: name, OpID: op, ID: len(t.spans) + 1, Parent: parent, StartNs: now})
	id := len(t.spans)
	t.mu.Unlock()
	return id
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].EndNs = now
	t.mu.Unlock()
}

// write stores the spans as one JSON object per line.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfNs is a span's duration minus the part of it its children cover.
func selfNs(s span, children []span) int64 {
	sort.Slice(children, func(i, j int) bool { return children[i].StartNs < children[j].StartNs })
	covered, upTo := int64(0), s.StartNs
	for _, c := range children {
		lo, hi := max(c.StartNs, upTo), min(c.EndNs, s.EndNs)
		if hi > lo {
			covered += hi - lo
			upTo = hi
		}
	}
	return s.EndNs - s.StartNs - covered
}

// ledger folds the spans of a traced pass into per-operation milliseconds:
// for every span name, the median over operations of the self time spent
// under that name in one operation. "root.total" is the root's whole
// duration. "op_self" is the unattributed remainder: the root's median minus
// the medians of the spans named in entries, which are the workload's ledger
// (children of the root, or probes of the layers the root call runs), so
// that the ledger adds up to the root exactly.
func (t *tracer) ledger(entries []string) map[string]float64 {
	kids := map[int][]span{}
	for _, s := range t.spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	perOp := map[string]map[int]float64{} // name → op → ms
	add := func(name string, op int, ns int64) {
		if perOp[name] == nil {
			perOp[name] = map[int]float64{}
		}
		perOp[name][op] += float64(ns) / 1e6
	}
	for _, s := range t.spans {
		add(s.Name, s.OpID, selfNs(s, kids[s.ID]))
		if s.Name == "root" {
			add("root.total", s.OpID, s.EndNs-s.StartNs)
		}
	}
	out := map[string]float64{}
	for name, byOp := range perOp {
		vals := make([]float64, 0, len(perOp["root.total"]))
		for op := range perOp["root.total"] {
			vals = append(vals, byOp[op]) // an operation without the span counts as 0
		}
		out[name] = median(vals)
	}
	out["op_self"] = out["root.total"]
	for _, name := range entries {
		out["op_self"] -= out[name]
	}
	return out
}
