package core

import (
	"context"
	"strings"
	"testing"

	"repro/internal/mesh"
)

// Error-target retrieval acceptance: RetrieveToTolerance must achieve its
// eps (measured against the original field through zero-fill prolongation)
// while fetching fewer modeled bytes than a full-accuracy Retrieve whenever
// eps permits stopping early.

func maxAbsDiff(a, b []float64) float64 {
	var m float64
	for i := range a {
		d := a[i] - b[i]
		if d < 0 {
			d = -d
		}
		if d > m {
			m = d
		}
	}
	return m
}

func TestWriteRecordsComposedBounds(t *testing.T) {
	aio := newIO()
	ds := testDataset("dpot", 24)
	rep, err := Write(context.Background(), aio, ds, Options{Levels: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Bounds) != 3 {
		t.Fatalf("Bounds = %v, want 3 entries", rep.Bounds)
	}
	for l, b := range rep.Bounds {
		if !(b > 0) {
			t.Fatalf("Bounds[%d] = %g, want positive", l, b)
		}
		if l > 0 && rep.Bounds[l-1] > rep.Bounds[l] {
			t.Fatalf("bounds not monotone: B(%d)=%g > B(%d)=%g",
				l-1, rep.Bounds[l-1], l, rep.Bounds[l])
		}
	}
	// The reader parses the same bounds back off the metadata container.
	rd, err := OpenReader(context.Background(), aio, "dpot")
	if err != nil {
		t.Fatal(err)
	}
	for l, want := range rep.Bounds {
		if got := rd.boundAt(l); got != want {
			t.Fatalf("reader bound at %d = %g, want recorded %g", l, got, want)
		}
	}
}

func TestRetrieveToToleranceSweep(t *testing.T) {
	aio := newIO()
	ds := testDataset("dpot", 32)
	rep, err := Write(context.Background(), aio, ds, Options{Levels: 3, Chunks: 2})
	if err != nil {
		t.Fatal(err)
	}
	rd, err := OpenReader(context.Background(), aio, "dpot")
	if err != nil {
		t.Fatal(err)
	}
	// Warm the mesh/mapping caches, then measure the steady-state cost of
	// full accuracy as the baseline every tolerance plan must undercut.
	if _, err := rd.Retrieve(context.Background(), 0); err != nil {
		t.Fatal(err)
	}
	full, err := rd.Retrieve(context.Background(), 0)
	if err != nil {
		t.Fatal(err)
	}

	for l, bound := range rep.Bounds {
		v, err := rd.RetrieveToTolerance(context.Background(), bound)
		if err != nil {
			t.Fatalf("eps %g: %v", bound, err)
		}
		if v.Degradation != nil {
			t.Fatalf("eps %g: unexpected degradation %+v", bound, v.Degradation)
		}
		if v.ErrorBound > bound {
			t.Fatalf("eps %g: view bound %g exceeds eps", bound, v.ErrorBound)
		}
		// Achieved error, measured: prolong to the finest mesh with zero
		// deltas and compare against the original field.
		prol, err := rd.ProlongToFinest(context.Background(), v)
		if err != nil {
			t.Fatal(err)
		}
		achieved := maxAbsDiff(prol, ds.Data)
		if achieved > bound {
			t.Fatalf("eps %g (level %d): achieved error %g exceeds eps", bound, v.Level, achieved)
		}
		// Any plan that stops above full accuracy must fetch strictly fewer
		// modeled bytes than the full retrieval.
		if v.Level > 0 && v.Timings.IOBytes >= full.Timings.IOBytes {
			t.Fatalf("eps %g stopped at level %d but moved %dB >= full %dB",
				bound, v.Level, v.Timings.IOBytes, full.Timings.IOBytes)
		}
		_ = l
	}

	// The loosest eps stops at the base.
	loose, err := rd.RetrieveToTolerance(context.Background(), rep.Bounds[len(rep.Bounds)-1])
	if err != nil {
		t.Fatal(err)
	}
	if loose.Level != rd.Levels()-1 {
		t.Fatalf("loose eps achieved level %d, want base %d", loose.Level, rd.Levels()-1)
	}
	if loose.Timings.IOBytes >= full.Timings.IOBytes {
		t.Fatalf("loose plan moved %dB, full retrieval %dB", loose.Timings.IOBytes, full.Timings.IOBytes)
	}
}

func TestRetrieveToToleranceUnreachable(t *testing.T) {
	aio := newIO()
	ds := testDataset("dpot", 24)
	rep, err := Write(context.Background(), aio, ds, Options{Levels: 3})
	if err != nil {
		t.Fatal(err)
	}
	rd, err := OpenReader(context.Background(), aio, "dpot")
	if err != nil {
		t.Fatal(err)
	}
	eps := rep.Bounds[0] / 1e6
	v, err := rd.RetrieveToTolerance(context.Background(), eps)
	if err != nil {
		t.Fatal(err)
	}
	if v.Level != 0 {
		t.Fatalf("unreachable eps achieved level %d, want 0 (best effort)", v.Level)
	}
	d := v.Degradation
	if d == nil {
		t.Fatal("unreachable eps returned no Degradation report")
	}
	if d.RequestedTolerance != eps || d.ErrorBound != v.ErrorBound {
		t.Fatalf("report = %+v, want RequestedTolerance %g, bound %g", d, eps, v.ErrorBound)
	}
	if !strings.Contains(d.Reason, "unreachable") {
		t.Fatalf("Reason %q does not explain unreachability", d.Reason)
	}

	// Invalid tolerances are rejected outright.
	if _, err := rd.RetrieveToTolerance(context.Background(), 0); err == nil {
		t.Fatal("eps 0 accepted")
	}
	if _, err := rd.RetrieveToTolerance(context.Background(), -1); err == nil {
		t.Fatal("negative eps accepted")
	}
}

func TestRetrieveToToleranceDirect(t *testing.T) {
	aio := newIO()
	ds := testDataset("dpot", 24)
	rep, err := Write(context.Background(), aio, ds, Options{Levels: 3, Mode: ModeDirect})
	if err != nil {
		t.Fatal(err)
	}
	rd, err := OpenReader(context.Background(), aio, "dpot")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rd.Retrieve(context.Background(), 0); err != nil {
		t.Fatal(err)
	}
	full, err := rd.Retrieve(context.Background(), 0)
	if err != nil {
		t.Fatal(err)
	}
	base := rd.Levels() - 1
	// Warm the base geometry as level 0's was above, so both sides of the
	// comparison move field data only.
	if _, err := rd.RetrieveToTolerance(context.Background(), rep.Bounds[base]); err != nil {
		t.Fatal(err)
	}
	v, err := rd.RetrieveToTolerance(context.Background(), rep.Bounds[base])
	if err != nil {
		t.Fatal(err)
	}
	if v.Level != base || v.Degradation != nil {
		t.Fatalf("direct loose eps: level %d (deg %+v), want base %d", v.Level, v.Degradation, base)
	}
	if v.Timings.IOBytes >= full.Timings.IOBytes {
		t.Fatalf("direct loose plan moved %dB >= full %dB", v.Timings.IOBytes, full.Timings.IOBytes)
	}
}

func TestSeriesRetrieveStepToTolerance(t *testing.T) {
	m := mesh.Rect(20, 20, 1, 1)
	aio := newIO()
	sw, err := NewSeriesWriter(context.Background(), aio, "dpot", m, 2.5, Options{Levels: 3, RelTolerance: 1e-6})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, err := sw.WriteStep(context.Background(), seriesField(m, float64(i))); err != nil {
			t.Fatal(err)
		}
	}
	sr, err := OpenSeriesReader(context.Background(), aio, "dpot")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sr.RetrieveStep(context.Background(), 1, 0); err != nil {
		t.Fatal(err)
	}
	full, err := sr.RetrieveStep(context.Background(), 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	base := sr.Levels() - 1
	v, err := sr.RetrieveStepToTolerance(context.Background(), 1, sr.boundAt(base))
	if err != nil {
		t.Fatal(err)
	}
	if v.Level != base || v.Degradation != nil {
		t.Fatalf("series loose eps: level %d (deg %+v), want base %d", v.Level, v.Degradation, base)
	}
	if v.ErrorBound > sr.boundAt(base) {
		t.Fatalf("series view bound %g exceeds eps %g", v.ErrorBound, sr.boundAt(base))
	}
	if v.Timings.IOBytes >= full.Timings.IOBytes {
		t.Fatalf("series loose plan moved %dB >= full %dB", v.Timings.IOBytes, full.Timings.IOBytes)
	}
	// Tight eps: full accuracy with an unreachable report.
	tight, err := sr.RetrieveStepToTolerance(context.Background(), 1, sr.boundAt(0)/1e6)
	if err != nil {
		t.Fatal(err)
	}
	if tight.Level != 0 || tight.Degradation == nil || tight.Degradation.RequestedTolerance == 0 {
		t.Fatalf("series tight eps: level %d, report %+v", tight.Level, tight.Degradation)
	}
}
