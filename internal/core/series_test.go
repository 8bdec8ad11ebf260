package core

import (
	"context"
	"math"
	"strings"
	"testing"

	"repro/internal/bp"
	"repro/internal/mesh"
)

// seriesField evaluates a time-dependent smooth field.
func seriesField(m *mesh.Mesh, t float64) []float64 {
	out := make([]float64, m.NumVerts())
	for i, v := range m.Verts {
		out[i] = math.Sin(4*v.X+t)*math.Cos(3*v.Y-0.5*t) + 0.2*t
	}
	return out
}

func newSeries(t *testing.T, levels, chunks int) (*SeriesWriter, *mesh.Mesh) {
	t.Helper()
	m := mesh.Rect(20, 20, 1, 1)
	aio := newIO()
	sw, err := NewSeriesWriter(context.Background(), aio, "dpot", m, 2.5, Options{
		Levels: levels, RelTolerance: 1e-6, Chunks: chunks,
	})
	if err != nil {
		t.Fatal(err)
	}
	return sw, m
}

func TestSeriesWriteRetrieveAllSteps(t *testing.T) {
	sw, m := newSeries(t, 3, 4)
	const steps = 4
	fields := make([][]float64, steps)
	for s := 0; s < steps; s++ {
		fields[s] = seriesField(m, float64(s))
		rep, err := sw.WriteStep(context.Background(), fields[s])
		if err != nil {
			t.Fatalf("step %d: %v", s, err)
		}
		if rep.Step != s {
			t.Fatalf("report step %d, want %d", rep.Step, s)
		}
		if rep.PayloadBytes <= 0 || rep.Timings.IOSeconds <= 0 {
			t.Fatalf("step %d report missing accounting: %+v", s, rep)
		}
	}
	sr, err := OpenSeriesReader(context.Background(), sw.aio, "dpot")
	if err != nil {
		t.Fatal(err)
	}
	if sr.Steps() != steps || sr.Levels() != 3 {
		t.Fatalf("reader steps=%d levels=%d", sr.Steps(), sr.Levels())
	}
	bound := sr.Tolerance() * 6
	for s := 0; s < steps; s++ {
		v, err := sr.RetrieveStep(context.Background(), s, 0)
		if err != nil {
			t.Fatalf("retrieve step %d: %v", s, err)
		}
		if v.Mesh.NumVerts() != m.NumVerts() {
			t.Fatalf("step %d mesh mismatch", s)
		}
		for i := range fields[s] {
			if e := math.Abs(v.Data[i] - fields[s][i]); e > bound {
				t.Fatalf("step %d vertex %d error %g exceeds %g", s, i, e, bound)
			}
		}
	}
}

func TestSeriesIntermediateLevels(t *testing.T) {
	sw, m := newSeries(t, 4, 1)
	f := seriesField(m, 1.5)
	if _, err := sw.WriteStep(context.Background(), f); err != nil {
		t.Fatal(err)
	}
	sr, err := OpenSeriesReader(context.Background(), sw.aio, "dpot")
	if err != nil {
		t.Fatal(err)
	}
	prevVerts := 1 << 30
	for l := 0; l < 4; l++ {
		v, err := sr.RetrieveStep(context.Background(), 0, l)
		if err != nil {
			t.Fatalf("level %d: %v", l, err)
		}
		if v.Level != l || len(v.Data) != v.Mesh.NumVerts() {
			t.Fatalf("level %d view inconsistent", l)
		}
		// Ascending level index means coarser meshes.
		if v.Mesh.NumVerts() >= prevVerts {
			t.Fatalf("level %d (%d verts) not coarser than level %d (%d verts)",
				l, v.Mesh.NumVerts(), l-1, prevVerts)
		}
		prevVerts = v.Mesh.NumVerts()
	}
}

func TestSeriesHierarchyStoredOnce(t *testing.T) {
	// S steps through the series writer must store far less than S
	// standalone Writes, because geometry/mapping are shared.
	m := mesh.Rect(24, 24, 1, 1)
	const steps = 6

	aioA := newIO()
	sw, err := NewSeriesWriter(context.Background(), aioA, "dpot", m, 2.5, Options{Levels: 3, RelTolerance: 1e-6})
	if err != nil {
		t.Fatal(err)
	}
	var seriesBytes int64 = sw.HierarchyBytes()
	for s := 0; s < steps; s++ {
		rep, err := sw.WriteStep(context.Background(), seriesField(m, float64(s)))
		if err != nil {
			t.Fatal(err)
		}
		seriesBytes += rep.PayloadBytes
	}

	var standaloneBytes int64
	for s := 0; s < steps; s++ {
		aioB := newIO()
		ds := &Dataset{Name: "dpot", Mesh: m, Data: seriesField(m, float64(s))}
		rep, err := Write(context.Background(), aioB, ds, Options{Levels: 3, RelTolerance: 1e-6})
		if err != nil {
			t.Fatal(err)
		}
		standaloneBytes += rep.StoredBytes()
	}
	if seriesBytes >= standaloneBytes*2/3 {
		t.Fatalf("series stored %d bytes, standalone %d; shared hierarchy saved too little",
			seriesBytes, standaloneBytes)
	}
}

func TestSeriesMatchesStandaloneWithinTolerance(t *testing.T) {
	// The series path (restriction-derived coarse data) and the
	// standalone path (inline decimation) restore the same field to
	// within the accumulated codec bound.
	m := mesh.Rect(16, 16, 1, 1)
	f := seriesField(m, 0.7)

	aioA := newIO()
	sw, err := NewSeriesWriter(context.Background(), aioA, "dpot", m, 2.5, Options{Levels: 3, RelTolerance: 1e-8})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sw.WriteStep(context.Background(), f); err != nil {
		t.Fatal(err)
	}
	sr, err := OpenSeriesReader(context.Background(), aioA, "dpot")
	if err != nil {
		t.Fatal(err)
	}
	vs, err := sr.RetrieveStep(context.Background(), 0, 0)
	if err != nil {
		t.Fatal(err)
	}

	aioB := newIO()
	if _, err := Write(context.Background(), aioB, &Dataset{Name: "dpot", Mesh: m, Data: f}, Options{Levels: 3, RelTolerance: 1e-8}); err != nil {
		t.Fatal(err)
	}
	rd, err := OpenReader(context.Background(), aioB, "dpot")
	if err != nil {
		t.Fatal(err)
	}
	vb, err := rd.Retrieve(context.Background(), 0)
	if err != nil {
		t.Fatal(err)
	}
	bound := sr.Tolerance()*10 + 1e-10
	for i := range vs.Data {
		if math.Abs(vs.Data[i]-vb.Data[i]) > bound {
			t.Fatalf("series and standalone diverge at %d: %g vs %g", i, vs.Data[i], vb.Data[i])
		}
	}
}

func TestSeriesValidation(t *testing.T) {
	m := mesh.Rect(8, 8, 1, 1)
	aio := newIO()
	if _, err := NewSeriesWriter(context.Background(), aio, "", m, 1, Options{}); err == nil {
		t.Error("accepted empty name")
	}
	if _, err := NewSeriesWriter(context.Background(), aio, "x", m, 0, Options{}); err == nil {
		t.Error("accepted zero field range")
	}
	if _, err := NewSeriesWriter(context.Background(), aio, "x", m, 1, Options{Mode: ModeDirect}); err == nil {
		t.Error("accepted direct mode")
	}
	if _, err := NewSeriesWriter(context.Background(), aio, "x", m, 1, Options{Codec: "bogus"}); err == nil {
		t.Error("accepted unknown codec")
	}
	sw, err := NewSeriesWriter(context.Background(), aio, "x", m, 1, Options{Levels: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sw.WriteStep(context.Background(), make([]float64, 3)); err == nil {
		t.Error("accepted short step data")
	}
}

func TestSeriesReaderErrors(t *testing.T) {
	aio := newIO()
	if _, err := OpenSeriesReader(context.Background(), aio, "ghost"); err == nil {
		t.Error("opened missing series")
	}
	sw, m := newSeries(t, 2, 1)
	if _, err := sw.WriteStep(context.Background(), seriesField(m, 0)); err != nil {
		t.Fatal(err)
	}
	sr, err := OpenSeriesReader(context.Background(), sw.aio, "dpot")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sr.RetrieveStep(context.Background(), -1, 0); err == nil {
		t.Error("accepted negative step")
	}
	if _, err := sr.RetrieveStep(context.Background(), 5, 0); err == nil {
		t.Error("accepted step beyond campaign")
	}
	if _, err := sr.RetrieveStep(context.Background(), 0, 9); err == nil {
		t.Error("accepted bad level")
	}
	// A forged level count must be refused before anything is sized by it.
	forged := bp.NewWriter()
	for k, v := range map[string]string{"levels": "65", "steps": "1", "codec": "zfp", "tolerance": "1e-6", "estimator": "mean"} {
		forged.SetAttr(k, v)
	}
	if _, err := sw.aio.H.Put(context.Background(), seriesMetaKey("dpot"), forged.Bytes(), 0, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenSeriesReader(context.Background(), sw.aio, "dpot"); err == nil || !strings.Contains(err.Error(), "bad levels") {
		t.Errorf("opened a series with 65 levels: err = %v", err)
	}
}

func TestSeriesMeshSharedAcrossSteps(t *testing.T) {
	sw, m := newSeries(t, 3, 1)
	for s := 0; s < 3; s++ {
		if _, err := sw.WriteStep(context.Background(), seriesField(m, float64(s))); err != nil {
			t.Fatal(err)
		}
	}
	sr, err := OpenSeriesReader(context.Background(), sw.aio, "dpot")
	if err != nil {
		t.Fatal(err)
	}
	v0, err := sr.RetrieveStep(context.Background(), 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	v1, err := sr.RetrieveStep(context.Background(), 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if v0.Mesh != v1.Mesh {
		t.Fatal("steps did not share the cached mesh hierarchy")
	}
	// Hierarchy I/O is accounted once on the reader, not per step;
	// per-step I/O is payload-only, so the two steps read within a few
	// percent of each other (fields differ, so compressed sizes wiggle).
	hier := sr.HierarchyCost()
	if hier.Bytes <= 0 {
		t.Fatal("hierarchy cost not recorded")
	}
	lo, hi := v0.Timings.IOBytes, v1.Timings.IOBytes
	if lo > hi {
		lo, hi = hi, lo
	}
	if float64(hi) > 1.2*float64(lo) {
		t.Fatalf("per-step payload reads diverge: %d vs %d bytes", v0.Timings.IOBytes, v1.Timings.IOBytes)
	}
	// A third retrieval must not grow the hierarchy cost (cache hit).
	if _, err := sr.RetrieveStep(context.Background(), 2, 1); err != nil {
		t.Fatal(err)
	}
	if got := sr.HierarchyCost(); got.Bytes != hier.Bytes {
		t.Fatalf("hierarchy cost grew from %d to %d bytes on a warm reader", hier.Bytes, got.Bytes)
	}
}
