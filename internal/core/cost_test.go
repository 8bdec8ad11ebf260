package core

import (
	"context"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/storage"
)

// approxSeconds tolerates the float-summation-order difference between a
// PhaseTimings field (each pass's elapsed seconds, added once) and the
// request's FloatCounter (accumulated per unit): same values, possibly
// different association.
func approxSeconds(a, b float64) bool {
	return math.Abs(a-b) <= 1e-9*(1+math.Abs(a)+math.Abs(b))
}

// ledgersAgree checks a view's CostReport against its PhaseTimings, the two
// ledgers every read cost folds into: modeled and real bytes exactly, and
// I/O, decompress and restore seconds up to summation order.
func ledgersAgree(t *testing.T, what string, tm PhaseTimings, c *obs.CostReport) {
	t.Helper()
	if c == nil {
		t.Errorf("%s: view carries no CostReport", what)
		return
	}
	if c.ModeledBytes != tm.IOBytes || c.RealBytes != tm.IORealBytes {
		t.Errorf("%s: modeled/real bytes: cost %d/%d, timings %d/%d",
			what, c.ModeledBytes, c.RealBytes, tm.IOBytes, tm.IORealBytes)
	}
	for _, f := range []struct {
		name       string
		cost, time float64
	}{
		{"io", c.IOSeconds, tm.IOSeconds},
		{"decompress", c.DecompressSecs, tm.DecompressSeconds},
		{"restore", c.RestoreSecs, tm.RestoreSeconds},
	} {
		if !approxSeconds(f.cost, f.time) {
			t.Errorf("%s: %s seconds: cost %v, timings %v", what, f.name, f.cost, f.time)
		}
	}
}

// TestCostReportMatchesPhaseTimings is the single-fold guarantee stated as
// a test: the CostReport on a retrieved view and the view's PhaseTimings
// are fed at the same sites, so their totals agree on a fixed workload.
func TestCostReportMatchesPhaseTimings(t *testing.T) {
	aio := newIO()
	ds := testDataset("dpot", 24)
	if _, err := Write(context.Background(), aio, ds, Options{Levels: 3, Chunks: 2, RelTolerance: 1e-9}); err != nil {
		t.Fatal(err)
	}
	rd, err := OpenReader(context.Background(), aio, "dpot")
	if err != nil {
		t.Fatal(err)
	}
	v, err := rd.Retrieve(context.Background(), 0)
	if err != nil {
		t.Fatal(err)
	}
	c := v.Cost
	if c == nil {
		t.Fatal("retrieved view carries no CostReport")
	}
	if c.Op != "core.retrieve" {
		t.Errorf("op = %q, want core.retrieve", c.Op)
	}
	if c.ModeledBytes != v.Timings.IOBytes {
		t.Errorf("modeled bytes: cost %d, timings %d", c.ModeledBytes, v.Timings.IOBytes)
	}
	if c.RealBytes != v.Timings.IORealBytes {
		t.Errorf("real bytes: cost %d, timings %d", c.RealBytes, v.Timings.IORealBytes)
	}
	if !approxSeconds(c.IOSeconds, v.Timings.IOSeconds) {
		t.Errorf("io seconds: cost %v, timings %v", c.IOSeconds, v.Timings.IOSeconds)
	}
	if !approxSeconds(c.DecompressSecs, v.Timings.DecompressSeconds) {
		t.Errorf("decompress seconds: cost %v, timings %v", c.DecompressSecs, v.Timings.DecompressSeconds)
	}
	if !approxSeconds(c.RestoreSecs, v.Timings.RestoreSeconds) {
		t.Errorf("restore seconds: cost %v, timings %v", c.RestoreSecs, v.Timings.RestoreSeconds)
	}
	if c.Level != v.Level || c.ErrorBound != v.ErrorBound {
		t.Errorf("level/bound: cost %d/%v, view %d/%v", c.Level, c.ErrorBound, v.Level, v.ErrorBound)
	}
	if c.Degraded {
		t.Error("clean retrieval billed as degraded")
	}
	var tierReads, tierBytes int64
	for _, tc := range c.Tiers {
		tierReads += tc.Reads
		tierBytes += tc.Bytes
	}
	if tierReads == 0 || tierBytes == 0 {
		t.Errorf("per-tier attribution empty: %+v", c.Tiers)
	}
	if c.DurationSeconds <= 0 {
		t.Error("cost duration not positive")
	}

	// Hand-built progressive views carry no bill of their own.
	base, err := rd.Base(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if base.Cost != nil {
		t.Error("Base view carries a CostReport; only owning entry points bill")
	}
}

func TestRegionCostReportMatchesPhaseTimings(t *testing.T) {
	aio := newIO()
	ds := testDataset("dpot", 24)
	if _, err := Write(context.Background(), aio, ds, Options{Levels: 3, Chunks: 2, RelTolerance: 1e-9}); err != nil {
		t.Fatal(err)
	}
	rd, err := OpenReader(context.Background(), aio, "dpot")
	if err != nil {
		t.Fatal(err)
	}
	v, err := rd.RetrieveRegion(context.Background(), 0, 0.2, 0.2, 0.8, 0.8)
	if err != nil {
		t.Fatal(err)
	}
	c := v.Cost
	if c == nil {
		t.Fatal("region view carries no CostReport")
	}
	if c.Op != "core.retrieve_region" {
		t.Errorf("op = %q, want core.retrieve_region", c.Op)
	}
	if c.ModeledBytes != v.Timings.IOBytes || c.RealBytes != v.Timings.IORealBytes {
		t.Errorf("bytes: cost %d/%d, timings %d/%d",
			c.ModeledBytes, c.RealBytes, v.Timings.IOBytes, v.Timings.IORealBytes)
	}
	if !approxSeconds(c.DecompressSecs, v.Timings.DecompressSeconds) {
		t.Errorf("decompress seconds: cost %v, timings %v", c.DecompressSecs, v.Timings.DecompressSeconds)
	}
	if !approxSeconds(c.RestoreSecs, v.Timings.RestoreSeconds) {
		t.Errorf("restore seconds: cost %v, timings %v", c.RestoreSecs, v.Timings.RestoreSeconds)
	}
}

func TestSubscribeTerminalViewCarriesCost(t *testing.T) {
	aio := newIO()
	ds := testDataset("dpot", 24)
	rep, err := Write(context.Background(), aio, ds, Options{Levels: 3, RelTolerance: 1e-9})
	if err != nil {
		t.Fatal(err)
	}
	rd, err := OpenReader(context.Background(), aio, "dpot")
	if err != nil {
		t.Fatal(err)
	}
	ch, err := rd.Subscribe(context.Background(), rep.Bounds[0])
	if err != nil {
		t.Fatal(err)
	}
	var views []*View
	for v := range ch {
		views = append(views, v)
	}
	if len(views) == 0 {
		t.Fatal("stream delivered no views")
	}
	for i, v := range views[:len(views)-1] {
		if v.Cost != nil {
			t.Errorf("intermediate view %d carries a CostReport; only the terminal view bills", i)
		}
	}
	last := views[len(views)-1]
	if last.Cost == nil {
		t.Fatal("terminal stream view carries no CostReport")
	}
	if last.Cost.Op != "core.subscribe" {
		t.Errorf("op = %q, want core.subscribe", last.Cost.Op)
	}
	if last.Cost.ModeledBytes == 0 {
		t.Error("stream bill moved no modeled bytes")
	}
}

// TestDegradationEventAndCost: a degraded retrieval leaves one degradation
// event in the flight recorder with full attribution, and its CostReport
// carries the same reason.
func TestDegradationEventAndCost(t *testing.T) {
	ds := testDataset("dpot", 24)
	aio := faultedIO(t, ds, Options{Levels: 3}, "seed=1,tier=lustre,read.err=1")
	rd, err := OpenReader(context.Background(), aio, "dpot")
	if err != nil {
		t.Fatal(err)
	}
	rd.SetDegrade(true)
	start := obs.LastEventSeq()
	v, err := rd.Retrieve(context.Background(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if v.Degradation == nil {
		t.Fatal("expected a degraded view")
	}
	if v.Cost == nil || !v.Cost.Degraded || v.Cost.DegradedReason != v.Degradation.Reason {
		t.Errorf("cost degradation = %+v, want reason %q", v.Cost, v.Degradation.Reason)
	}
	// The failed refinement folded into neither ledger.
	ledgersAgree(t, "degraded retrieve", v.Timings, v.Cost)
	evs := obs.Events([]string{"degradation"}, start)
	if len(evs) != 1 {
		t.Fatalf("got %d degradation events, want 1", len(evs))
	}
	e := evs[0]
	if e.Attrs["requested_level"] != "0" {
		t.Errorf("degradation requested_level = %q, want 0", e.Attrs["requested_level"])
	}
	if e.Attrs["achieved_level"] == "" || e.Attrs["levels_lost"] == "" || e.Attrs["reason"] == "" {
		t.Errorf("degradation event missing attribution: %v", e.Attrs)
	}
	if e.Attrs["reason"] != v.Degradation.Reason {
		t.Errorf("event reason %q != view reason %q", e.Attrs["reason"], v.Degradation.Reason)
	}
}

// TestObservabilityEndToEnd is the issue's acceptance scenario: one traced
// Retrieve on a two-tier hierarchy with injected transient read faults must
// produce (1) a CostReport whose per-tier bytes/reads/retries match the
// storage layer's own counters exactly, (2) a retry event chain visible via
// /debug/events, and (3) — with the slow-trace pinner armed — a pinned
// trace reachable from the latency histogram's exemplar via
// /debug/trace/slow.
func TestObservabilityEndToEnd(t *testing.T) {
	obs.ResetTraces()
	obs.SetSlowTraceThreshold(time.Nanosecond) // pin everything
	defer obs.SetSlowTraceThreshold(0)

	aio := newIO()
	aio.H.SetRetryPolicy(storage.RetryPolicy{Attempts: 10, BaseDelay: time.Microsecond, MaxDelay: 10 * time.Microsecond})
	ds := testDataset("dpot", 24)
	if _, err := Write(context.Background(), aio, ds, Options{Levels: 3, Chunks: 2, RelTolerance: 1e-9}); err != nil {
		t.Fatal(err)
	}
	if n, err := aio.H.InjectFaults("seed=7,tier=lustre,read.err=0.5"); err != nil || n == 0 {
		t.Fatalf("InjectFaults = %d, %v", n, err)
	}
	rd, err := OpenReader(context.Background(), aio, "dpot")
	if err != nil {
		t.Fatal(err)
	}
	// The injector draws from one seeded sequence in operation order. One
	// worker keeps that order — and so which read meets which fault — the
	// same on every run; concurrent reads could hand one of them ten
	// failures in a row.
	rd.SetWorkers(1)

	counter := func(name string) int64 { return obs.NewCounter(name).Value() }
	type baseline struct{ tmpfsBytes, tmpfsOps, lustreBytes, lustreOps, retries int64 }
	snap := func() baseline {
		return baseline{
			tmpfsBytes:  counter("canopus_storage_tmpfs_read_bytes_total"),
			tmpfsOps:    counter("canopus_storage_tmpfs_read_ops_total"),
			lustreBytes: counter("canopus_storage_lustre_read_bytes_total"),
			lustreOps:   counter("canopus_storage_lustre_read_ops_total"),
			retries:     counter("canopus_storage_read_retries_total"),
		}
	}

	before := snap()
	startSeq := obs.LastEventSeq()
	tctx, root := obs.Trace(context.Background(), "accept.retrieve")
	v, err := rd.Retrieve(tctx, 0)
	root.End()
	if err != nil {
		t.Fatal(err)
	}
	after := snap()
	c := v.Cost
	if c == nil {
		t.Fatal("no CostReport on the view")
	}
	if c.Retries == 0 {
		t.Fatal("seeded transient faults caused no retries; the scenario did not exercise the chain")
	}

	// (1) Per-tier attribution matches the storage counters exactly.
	if got, want := c.Tiers["tmpfs"].Bytes, after.tmpfsBytes-before.tmpfsBytes; got != want {
		t.Errorf("tmpfs bytes: cost %d, counters moved %d", got, want)
	}
	if got, want := c.Tiers["tmpfs"].Reads, after.tmpfsOps-before.tmpfsOps; got != want {
		t.Errorf("tmpfs reads: cost %d, counters moved %d", got, want)
	}
	if got, want := c.Tiers["lustre"].Bytes, after.lustreBytes-before.lustreBytes; got != want {
		t.Errorf("lustre bytes: cost %d, counters moved %d", got, want)
	}
	if got, want := c.Tiers["lustre"].Reads, after.lustreOps-before.lustreOps; got != want {
		t.Errorf("lustre reads: cost %d, counters moved %d", got, want)
	}
	if got, want := c.Retries, after.retries-before.retries; got != want {
		t.Errorf("retries: cost %d, counters moved %d", got, want)
	}
	if c.Tiers["tmpfs"].Retries != 0 {
		t.Errorf("tmpfs billed %d retries; faults were lustre-scoped", c.Tiers["tmpfs"].Retries)
	}
	if c.Tiers["lustre"].Retries != c.Retries {
		t.Errorf("lustre retries %d != request total %d", c.Tiers["lustre"].Retries, c.Retries)
	}

	// (2) The retry event chain is visible over /debug/events.
	srv := httptest.NewServer(obs.DebugHandler())
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/debug/events?type=retry")
	if err != nil {
		t.Fatal(err)
	}
	var evs []obs.Event
	if err := json.NewDecoder(resp.Body).Decode(&evs); err != nil {
		t.Fatalf("decode /debug/events: %v", err)
	}
	resp.Body.Close()
	var chain []obs.Event
	for _, e := range evs {
		if e.Seq > startSeq {
			chain = append(chain, e)
		}
	}
	if int64(len(chain)) != c.Retries {
		t.Errorf("event chain has %d retries, CostReport bills %d", len(chain), c.Retries)
	}
	for _, e := range chain {
		if e.Attrs["tier"] != "lustre" {
			t.Errorf("retry event on tier %q, faults were lustre-scoped: %v", e.Attrs["tier"], e.Attrs)
		}
		if e.Attrs["key"] == "" || e.Attrs["error"] == "" || e.Attrs["attempt"] == "" {
			t.Errorf("retry event missing attribution: %v", e.Attrs)
		}
	}

	// (3) The latency histogram's exemplar links to the pinned slow trace.
	if c.TraceID == 0 || c.TraceID != root.TraceID() {
		t.Fatalf("cost trace id = %d, want the root's %d", c.TraceID, root.TraceID())
	}
	var ex *obs.Exemplar
	for _, e := range metricRetrieveSeconds.Exemplars() {
		if e.TraceID == c.TraceID {
			ex = &e
			break
		}
	}
	if ex == nil {
		t.Fatal("canopus_core_retrieve_seconds has no exemplar for the retrieval's trace")
	}
	resp, err = http.Get(srv.URL + "/debug/trace/slow?id=" + strconv.FormatUint(ex.TraceID, 10))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/debug/trace/slow?id=%d: status %d", ex.TraceID, resp.StatusCode)
	}
	var pinned obs.SpanDump
	if err := json.NewDecoder(resp.Body).Decode(&pinned); err != nil {
		t.Fatalf("decode pinned trace: %v", err)
	}
	resp.Body.Close()
	if pinned.TraceID != c.TraceID {
		t.Errorf("pinned trace id %d != exemplar trace id %d", pinned.TraceID, c.TraceID)
	}
	sawRetrieve := false
	pinned.Walk(func(s obs.SpanDump) {
		if s.Name == "core.retrieve" {
			sawRetrieve = true
			if s.Attrs["cost.retries"] == "" {
				t.Error("pinned core.retrieve span missing the mirrored cost.retries attr")
			}
		}
	})
	if !sawRetrieve {
		t.Error("pinned trace does not contain the core.retrieve span")
	}
}
