package core

import (
	"context"
	"math"
	"testing"
)

// TestBarycentricArchiveRoundTrip writes a hierarchy with the barycentric
// estimator, the one estimator whose restore still reads coordinates, and
// reads it back through every path that restores: each level from Retrieve
// within its recorded bound, RetrieveRegion bit-equal to Retrieve at every
// restored vertex, and ProlongToFinest within bound.
func TestBarycentricArchiveRoundTrip(t *testing.T) {
	ctx := context.Background()
	aio := newIO()
	ds := testDataset("dpot", 24)
	rep, err := Write(ctx, aio, ds, Options{Levels: 3, Chunks: 4, Estimator: "barycentric"})
	if err != nil {
		t.Fatal(err)
	}
	rd, err := OpenReader(ctx, aio, "dpot")
	if err != nil {
		t.Fatal(err)
	}
	if got := rd.estimator.Name(); got != "barycentric" {
		t.Fatalf("reader estimator %q, want barycentric", got)
	}
	for l, bound := range rep.Bounds {
		v, err := rd.Retrieve(ctx, l)
		if err != nil {
			t.Fatalf("level %d: %v", l, err)
		}
		if v.ErrorBound != bound {
			t.Fatalf("level %d: view bound %g, recorded %g", l, v.ErrorBound, bound)
		}
		if l == 0 {
			if e := maxAbsDiff(v.Data, ds.Data); e > bound {
				t.Fatalf("level 0: error %g exceeds bound %g", e, bound)
			}
		}
		prol, err := rd.ProlongToFinest(ctx, v)
		if err != nil {
			t.Fatalf("level %d: %v", l, err)
		}
		if e := maxAbsDiff(prol, ds.Data); e > bound {
			t.Fatalf("level %d: prolonged error %g exceeds bound %g", l, e, bound)
		}

		rv, err := rd.RetrieveRegion(ctx, l, 0.2, 0.3, 0.7, 0.8)
		if err != nil {
			t.Fatalf("level %d region: %v", l, err)
		}
		if rv.CountHave() == 0 {
			t.Fatalf("level %d region restored no vertex", l)
		}
		for vi, ok := range rv.Have {
			if ok && math.Float64bits(rv.Data[vi]) != math.Float64bits(v.Data[vi]) {
				t.Fatalf("level %d vertex %d: region %g, full %g", l, vi, rv.Data[vi], v.Data[vi])
			}
		}
	}
}
