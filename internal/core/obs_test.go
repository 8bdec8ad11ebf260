package core

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"repro/internal/obs"
)

// TestConcurrentTimingRace runs eight Retrieves at once on one reader and
// checks each view's two ledgers against each other: its PhaseTimings,
// owned by the retrieval's goroutine, and its CostReport, whose request
// folds from the retrieval's worker units. Under -race neither may trip the
// detector, and no retrieval may see another's costs. It reads no
// package-global state, so it is safe at any -count.
func TestConcurrentTimingRace(t *testing.T) {
	aio := newIO()
	ds := testDataset("dpot", 24)
	if _, err := Write(context.Background(), aio, ds, Options{Levels: 3, RelTolerance: 1e-9, Chunks: 2}); err != nil {
		t.Fatal(err)
	}
	r, err := OpenReader(context.Background(), aio, "dpot")
	if err != nil {
		t.Fatal(err)
	}

	const workers = 8
	views := make([]*View, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			views[i], errs[i] = r.Retrieve(context.Background(), 0)
		}(i)
	}
	wg.Wait()

	for i, v := range views {
		if errs[i] != nil {
			t.Fatalf("retrieve %d: %v", i, errs[i])
		}
		if v.Timings.IOBytes == 0 || v.Timings.IORealBytes == 0 {
			t.Fatalf("retrieve %d moved no bytes", i)
		}
		ledgersAgree(t, fmt.Sprintf("retrieve %d", i), v.Timings, v.Cost)
	}
}

// TestBaseRetrieveTouchesNoDeltaTier is the paper's core I/O claim stated
// as a request-attribution assertion: a base-only retrieve fetches from the
// fast tier only. The request's per-tier bill must show fast-tier reads
// (the metadata and base containers) and zero slow-tier reads — the delta
// containers beside the base are never touched. (Healthy storage reads no
// longer emit per-read spans — the per-tier counters carry this claim.)
func TestBaseRetrieveTouchesNoDeltaTier(t *testing.T) {
	aio := newIO()
	ds := testDataset("dpot", 24)
	if _, err := Write(context.Background(), aio, ds, Options{Levels: 3, RelTolerance: 1e-9}); err != nil {
		t.Fatal(err)
	}

	ctx, root := obs.Trace(context.Background(), "test.base_only")
	ctx, req, owned := obs.BeginRequest(ctx, "test.base_only")
	if !owned {
		t.Fatal("expected to own the request")
	}
	r, err := OpenReader(ctx, aio, "dpot")
	if err != nil {
		t.Fatal(err)
	}
	v, err := r.Base(ctx)
	if err != nil {
		t.Fatal(err)
	}
	rep := req.Report(nil)
	root.End()

	dump := root.Dump()
	var sawBase, sawDecompress bool
	dump.Walk(func(s obs.SpanDump) {
		switch s.Name {
		case "core.base":
			sawBase = true
		case "core.decompress":
			sawDecompress = true
		}
	})
	if !sawBase || !sawDecompress {
		t.Fatalf("span tree missing phases: base=%v decompress=%v", sawBase, sawDecompress)
	}
	var fast int64
	for tier, tc := range rep.Tiers {
		if tier == "lustre" {
			t.Errorf("base-only retrieve billed %d slow-tier reads (%d bytes), want none", tc.Reads, tc.Bytes)
			continue
		}
		fast += tc.Reads
	}
	if fast == 0 {
		t.Fatal("request billed no storage reads")
	}
	if v.Timings.IOBytes == 0 {
		t.Fatal("base view recorded no modeled IO")
	}
}

// TestRetrieveSpanTree checks the shape of a full retrieval's trace: the
// root covers core.retrieve, which nests core.base plus one core.augment
// per refined level, each augment carrying a core.restore child.
func TestRetrieveSpanTree(t *testing.T) {
	aio := newIO()
	ds := testDataset("dpot", 24)
	if _, err := Write(context.Background(), aio, ds, Options{Levels: 3, RelTolerance: 1e-9}); err != nil {
		t.Fatal(err)
	}
	ctx, root := obs.Trace(context.Background(), "test.retrieve")
	r, err := OpenReader(ctx, aio, "dpot")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Retrieve(ctx, 0); err != nil {
		t.Fatal(err)
	}
	root.End()

	counts := map[string]int{}
	root.Dump().Walk(func(s obs.SpanDump) { counts[s.Name]++ })
	if counts["core.retrieve"] != 1 {
		t.Errorf("core.retrieve spans = %d, want 1", counts["core.retrieve"])
	}
	if counts["core.base"] != 1 {
		t.Errorf("core.base spans = %d, want 1", counts["core.base"])
	}
	if counts["core.augment"] != 2 {
		t.Errorf("core.augment spans = %d, want 2", counts["core.augment"])
	}
	if counts["core.restore"] != 2 {
		t.Errorf("core.restore spans = %d, want 2", counts["core.restore"])
	}
	if counts["adios.open"] == 0 {
		t.Error("no adios.open spans in retrieval trace")
	}
}
