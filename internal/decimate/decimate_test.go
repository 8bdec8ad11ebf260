package decimate

import (
	"context"
	"math"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/mesh"
)

// radialField is a smooth test field over mesh vertices.
func radialField(m *mesh.Mesh) []float64 {
	out := make([]float64, len(m.Verts))
	for i, v := range m.Verts {
		out[i] = math.Sin(3*v.X) * math.Cos(2*v.Y)
	}
	return out
}

func TestDecimateHalvesVertices(t *testing.T) {
	m := mesh.Rect(20, 20, 1, 1) // 441 vertices
	data := radialField(m)
	target := TargetForRatio(m.NumVerts(), 2)
	res, err := Decimate(m, data, target, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Coarse.NumVerts(); got > target {
		t.Errorf("coarse has %d vertices, want <= %d", got, target)
	}
	if res.AchievedRatio < 1.9 {
		t.Errorf("achieved ratio %.2f, want ~2", res.AchievedRatio)
	}
	if len(res.Data) != res.Coarse.NumVerts() {
		t.Errorf("data length %d != coarse vertices %d", len(res.Data), res.Coarse.NumVerts())
	}
	if err := res.Coarse.Validate(); err != nil {
		t.Errorf("coarse mesh invalid: %v", err)
	}
}

func TestDecimateDeepRatios(t *testing.T) {
	m := mesh.Disk(20, 64, 1.0) // 1281 vertices
	data := radialField(m)
	for _, ratio := range []float64{2, 4, 8, 16, 32} {
		target := TargetForRatio(m.NumVerts(), ratio)
		res, err := Decimate(m, data, target, Options{})
		if err != nil {
			t.Fatalf("ratio %g: %v", ratio, err)
		}
		if err := res.Coarse.Validate(); err != nil {
			t.Fatalf("ratio %g: invalid coarse mesh: %v", ratio, err)
		}
		if res.Coarse.NumVerts() > target {
			t.Errorf("ratio %g: %d vertices, want <= %d", ratio, res.Coarse.NumVerts(), target)
		}
		// The coarse mesh must still have triangles to interpolate from.
		if res.Coarse.NumTris() == 0 {
			t.Errorf("ratio %g: coarse mesh has no triangles", ratio)
		}
	}
}

func TestDecimateNoOpWhenTargetLarge(t *testing.T) {
	m := mesh.Rect(5, 5, 1, 1)
	data := radialField(m)
	res, err := Decimate(m, data, m.NumVerts(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Collapses != 0 {
		t.Errorf("Collapses = %d, want 0", res.Collapses)
	}
	if res.Coarse.NumVerts() != m.NumVerts() {
		t.Errorf("vertex count changed on no-op")
	}
	if res.AchievedRatio != 1 {
		t.Errorf("AchievedRatio = %g, want 1", res.AchievedRatio)
	}
	// Result must be a copy, not an alias.
	res.Coarse.Verts[0].X = 1e9
	if m.Verts[0].X == 1e9 {
		t.Error("no-op result aliases input mesh")
	}
}

func TestDecimateArgErrors(t *testing.T) {
	m := mesh.Rect(4, 4, 1, 1)
	if _, err := Decimate(m, make([]float64, 3), 10, Options{}); err == nil {
		t.Error("accepted mismatched data length")
	}
	if _, err := Decimate(m, radialField(m), 2, Options{}); err == nil {
		t.Error("accepted target < 3")
	}
}

func TestDecimateInputUntouched(t *testing.T) {
	m := mesh.Rect(10, 10, 1, 1)
	orig := m.Clone()
	data := radialField(m)
	origData := append([]float64(nil), data...)
	if _, err := Decimate(m, data, TargetForRatio(m.NumVerts(), 4), Options{}); err != nil {
		t.Fatal(err)
	}
	for i := range orig.Verts {
		if m.Verts[i] != orig.Verts[i] {
			t.Fatal("input vertices mutated")
		}
	}
	for i := range orig.Tris {
		if m.Tris[i] != orig.Tris[i] {
			t.Fatal("input triangles mutated")
		}
	}
	for i := range origData {
		if data[i] != origData[i] {
			t.Fatal("input data mutated")
		}
	}
}

func TestDecimateDeterministic(t *testing.T) {
	m := mesh.Annulus(10, 40, 0.5, 1.0)
	data := radialField(m)
	target := TargetForRatio(m.NumVerts(), 4)
	a, err := Decimate(m, data, target, Options{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Decimate(m, data, target, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if a.Coarse.NumVerts() != b.Coarse.NumVerts() || a.Coarse.NumTris() != b.Coarse.NumTris() {
		t.Fatal("decimation not deterministic (sizes differ)")
	}
	for i := range a.Coarse.Verts {
		if a.Coarse.Verts[i] != b.Coarse.Verts[i] {
			t.Fatalf("vertex %d differs between runs", i)
		}
	}
	for i := range a.Data {
		if a.Data[i] != b.Data[i] {
			t.Fatalf("data %d differs between runs", i)
		}
	}
}

func TestDecimatePreservesDataRange(t *testing.T) {
	// NewData is the mean of the two endpoint values, so coarse data can
	// never escape the range of the fine data.
	m := mesh.Disk(12, 48, 1.0)
	data := radialField(m)
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, v := range data {
		lo = math.Min(lo, v)
		hi = math.Max(hi, v)
	}
	res, err := Decimate(m, data, TargetForRatio(m.NumVerts(), 8), Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range res.Data {
		if v < lo-1e-12 || v > hi+1e-12 {
			t.Fatalf("coarse data[%d] = %g outside input range [%g, %g]", i, v, lo, hi)
		}
	}
}

func TestDecimatePreservesMean(t *testing.T) {
	// Averaging collapses keep the field mean roughly stable on a
	// quasi-uniform mesh; a large drift signals data/vertex misalignment.
	m := mesh.Rect(24, 24, 1, 1)
	data := radialField(m)
	var fine float64
	for _, v := range data {
		fine += v
	}
	fine /= float64(len(data))
	res, err := Decimate(m, data, TargetForRatio(m.NumVerts(), 4), Options{})
	if err != nil {
		t.Fatal(err)
	}
	var coarse float64
	for _, v := range res.Data {
		coarse += v
	}
	coarse /= float64(len(res.Data))
	spread := 0.3 // generous: means should agree to a fraction of the field amplitude
	if math.Abs(coarse-fine) > spread {
		t.Fatalf("mean drifted from %g to %g", fine, coarse)
	}
}

func TestDecimateCoarseCoversFine(t *testing.T) {
	// Every fine vertex should locate inside or very near the coarse
	// mesh, otherwise delta estimation degrades to extrapolation.
	m := mesh.Rect(16, 16, 1, 1)
	data := radialField(m)
	res, err := Decimate(m, data, TargetForRatio(m.NumVerts(), 4), Options{})
	if err != nil {
		t.Fatal(err)
	}
	loc := mesh.NewLocator(res.Coarse)
	outside := 0
	for _, v := range m.Verts {
		if _, ok := loc.Locate(v.X, v.Y); !ok {
			outside++
		}
	}
	// Boundary collapses shrink the hull slightly; allow a modest
	// fraction of strays but not a systemic failure.
	if frac := float64(outside) / float64(m.NumVerts()); frac > 0.15 {
		t.Fatalf("%.0f%% of fine vertices fall outside the coarse mesh", 100*frac)
	}
}

func TestDataWeightedPreservesFeatures(t *testing.T) {
	// A sharp bump on a flat field: the data-weighted priority must keep
	// far more of the bump's amplitude at a deep ratio than plain
	// shortest-edge collapsing.
	m := mesh.Rect(32, 32, 1, 1)
	data := make([]float64, m.NumVerts())
	for i, v := range m.Verts {
		dx, dy := v.X-0.5, v.Y-0.5
		data[i] = math.Exp(-(dx*dx + dy*dy) / (2 * 0.04 * 0.04))
	}
	peak := func(res *Result) float64 {
		p := 0.0
		for _, v := range res.Data {
			p = math.Max(p, v)
		}
		return p
	}
	target := TargetForRatio(m.NumVerts(), 16)
	plain, err := Decimate(m, data, target, Options{})
	if err != nil {
		t.Fatal(err)
	}
	weighted, err := Decimate(m, data, target, Options{Priority: DataWeighted})
	if err != nil {
		t.Fatal(err)
	}
	if err := weighted.Coarse.Validate(); err != nil {
		t.Fatalf("DataWeighted produced invalid mesh: %v", err)
	}
	if peak(weighted) <= peak(plain) {
		t.Fatalf("DataWeighted peak %.3f not above shortest-edge peak %.3f",
			peak(weighted), peak(plain))
	}
	if peak(weighted) < 0.5 {
		t.Fatalf("DataWeighted peak %.3f lost the feature entirely", peak(weighted))
	}
}

func TestDataWeightedConstantFieldDegradesToGeometric(t *testing.T) {
	// On constant data the data term vanishes; the tiny geometric tie-
	// break must still produce a valid decimation to the target.
	m := mesh.Rect(16, 16, 1, 1)
	data := make([]float64, m.NumVerts())
	for i := range data {
		data[i] = 3.25
	}
	res, err := Decimate(m, data, TargetForRatio(m.NumVerts(), 4), Options{Priority: DataWeighted})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Coarse.Validate(); err != nil {
		t.Fatal(err)
	}
	if res.AchievedRatio < 3.5 {
		t.Fatalf("achieved ratio %.2f on constant field", res.AchievedRatio)
	}
}

func TestHashOrderPriorityStillValid(t *testing.T) {
	m := mesh.Rect(12, 12, 1, 1)
	data := radialField(m)
	res, err := Decimate(m, data, TargetForRatio(m.NumVerts(), 4), Options{Priority: HashOrder})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Coarse.Validate(); err != nil {
		t.Fatalf("HashOrder produced invalid mesh: %v", err)
	}
}

func TestRestrictionReproducesData(t *testing.T) {
	m := mesh.Disk(12, 48, 1.0)
	data := radialField(m)
	res, err := Decimate(m, data, TargetForRatio(m.NumVerts(), 8), Options{TrackRestriction: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Restriction) != res.Coarse.NumVerts() {
		t.Fatalf("restriction rows %d, want %d", len(res.Restriction), res.Coarse.NumVerts())
	}
	applied, err := res.Restriction.ApplyParallel(context.Background(), nil, data, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range applied {
		// Association order differs between inline collapse arithmetic
		// and the weighted sum, so allow float rounding only.
		if math.Abs(applied[i]-res.Data[i]) > 1e-12 {
			t.Fatalf("row %d: applied %g vs inline %g", i, applied[i], res.Data[i])
		}
	}
	// Rows are convex combinations: weights positive and summing to 1.
	for j, row := range res.Restriction {
		var sum float64
		prev := int32(-1)
		for _, wt := range row {
			if wt.W <= 0 {
				t.Fatalf("row %d has non-positive weight %g", j, wt.W)
			}
			if wt.Vertex <= prev {
				t.Fatalf("row %d not sorted by vertex", j)
			}
			prev = wt.Vertex
			sum += wt.W
		}
		if math.Abs(sum-1) > 1e-12 {
			t.Fatalf("row %d weights sum to %g", j, sum)
		}
	}
}

func TestRestrictionAppliesToNewField(t *testing.T) {
	// The series use case: the same restriction maps a *different* field
	// on the same mesh to what decimating that field would produce.
	m := mesh.Rect(14, 14, 1, 1)
	f1 := radialField(m)
	f2 := make([]float64, len(f1))
	for i, v := range m.Verts {
		f2[i] = v.X*v.X - 2*v.Y
	}
	target := TargetForRatio(m.NumVerts(), 4)
	r1, err := Decimate(m, f1, target, Options{TrackRestriction: true})
	if err != nil {
		t.Fatal(err)
	}
	// Decimating f2 with a geometry-only priority follows the identical
	// collapse sequence.
	r2, err := Decimate(m, f2, target, Options{})
	if err != nil {
		t.Fatal(err)
	}
	applied, err := r1.Restriction.ApplyParallel(context.Background(), nil, f2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(applied) != len(r2.Data) {
		t.Fatalf("restriction output %d values, direct %d", len(applied), len(r2.Data))
	}
	for i := range applied {
		if math.Abs(applied[i]-r2.Data[i]) > 1e-12 {
			t.Fatalf("value %d: restriction %g, direct decimation %g", i, applied[i], r2.Data[i])
		}
	}
}

func TestRestrictionNoOpIsIdentity(t *testing.T) {
	m := mesh.Rect(4, 4, 1, 1)
	data := radialField(m)
	res, err := Decimate(m, data, m.NumVerts(), Options{TrackRestriction: true})
	if err != nil {
		t.Fatal(err)
	}
	for i, row := range res.Restriction {
		if len(row) != 1 || row[0].Vertex != int32(i) || row[0].W != 1 {
			t.Fatalf("row %d not identity: %v", i, row)
		}
	}
}

func TestRestrictionNilWhenUntracked(t *testing.T) {
	m := mesh.Rect(6, 6, 1, 1)
	res, err := Decimate(m, radialField(m), TargetForRatio(m.NumVerts(), 2), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Restriction != nil {
		t.Fatal("restriction tracked without opt-in")
	}
}

func TestTargetForRatio(t *testing.T) {
	cases := []struct {
		n     int
		ratio float64
		want  int
	}{
		{100, 2, 50},
		{101, 2, 51},
		{100, 1, 100},
		{100, 0.5, 100},
		{10, 8, 3},
		{8, 100, 3},
	}
	for _, c := range cases {
		if got := TargetForRatio(c.n, c.ratio); got != c.want {
			t.Errorf("TargetForRatio(%d, %g) = %d, want %d", c.n, c.ratio, got, c.want)
		}
	}
}

// TestQuickDecimateValidity: decimating random rect meshes at random ratios
// always yields a valid triangulation with matching data length.
func TestQuickDecimateValidity(t *testing.T) {
	f := func(seed uint8, ratioSel uint8) bool {
		n := 6 + int(seed%10)
		ratio := []float64{2, 3, 4, 8}[ratioSel%4]
		m := mesh.Rect(n, n, 1, 1)
		data := radialField(m)
		res, err := Decimate(m, data, TargetForRatio(m.NumVerts(), ratio), Options{})
		if err != nil {
			return false
		}
		if err := res.Coarse.Validate(); err != nil {
			return false
		}
		return len(res.Data) == res.Coarse.NumVerts()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestNaNPriorityFreshAndReusedAgree: a priority that answers NaN for some
// edges gives the same output on a fresh pass and on one that reuses the
// previous pass's state, and the NaN edges collapse after every other one,
// exactly as if their priority were +Inf.
func TestNaNPriorityFreshAndReusedAgree(t *testing.T) {
	m := mesh.Disk(16, 48, 1)
	data := radialField(m)
	target := TargetForRatio(m.NumVerts(), 4)
	withNaN := func(nan float64) Priority {
		return func(m *mesh.Mesh, a, b int32, data []float64) float64 {
			if HashOrder(m, a, b, data) < 0.3 {
				return nan
			}
			return EdgeLength(m, a, b, data)
		}
	}
	run := func(nan float64) *Result {
		res, err := Decimate(m, data, target, Options{Priority: withNaN(nan), TrackRestriction: true})
		if err != nil {
			t.Fatal(err)
		}
		if err := res.Coarse.Validate(); err != nil {
			t.Fatal(err)
		}
		return res
	}
	select {
	case <-spare: // the next pass starts from fresh state
	default:
	}
	fresh := run(math.NaN())
	other := mesh.Rect(9, 9, 1, 1)
	if _, err := Decimate(other, radialField(other), 20, Options{}); err != nil {
		t.Fatal(err)
	}
	if len(spare) != 1 {
		t.Fatal("no state was left for the next pass to reuse")
	}
	if reused := run(math.NaN()); !reflect.DeepEqual(reused, fresh) {
		t.Error("a pass on reused state differs from the fresh one")
	}
	if inf := run(math.Inf(1)); !reflect.DeepEqual(inf, fresh) {
		t.Error("NaN priorities do not collapse as +Inf ones do")
	}
}

func BenchmarkDecimate4x(b *testing.B) {
	m := mesh.Disk(40, 128, 1.0)
	data := radialField(m)
	target := TargetForRatio(m.NumVerts(), 4)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Decimate(m, data, target, Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// TestDecimateCancellation: a pass observes ctx before it starts, between
// parts, and in the seam pass, and returns ctx.Err() unwrapped.
func TestDecimateCancellation(t *testing.T) {
	m := mesh.Annulus(24, 400, 0.3, 1) // 10,000 vertices: two parts
	data := radialField(m)
	target := TargetForRatio(m.NumVerts(), 2)
	// cancelling returns a context and a priority that cancels it on its
	// first call.
	cancelling := func() (context.Context, Priority) {
		ctx, cancel := context.WithCancel(context.Background())
		t.Cleanup(cancel)
		return ctx, func(m *mesh.Mesh, a, b int32, data []float64) float64 {
			cancel()
			return EdgeLength(m, a, b, data)
		}
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := DecimateParallel(ctx, nil, m, data, target, Options{}); err != context.Canceled {
		t.Fatalf("cancelled before the pass: err = %v, want context.Canceled", err)
	}

	// Seeding the first part cancels: the second never starts.
	ctx, prio := cancelling()
	w := new(work)
	w.init(m, data, target, prio, false, 0, 2, 1)
	if err := w.runParts(ctx, nil); err != context.Canceled {
		t.Fatalf("cancelled in the first part: err = %v, want context.Canceled", err)
	}
	if w.parts[0].queue.Len() == 0 || w.parts[1].queue.Len() != 0 {
		t.Errorf("queued %d and %d edges, want the first part seeded and the second not started",
			w.parts[0].queue.Len(), w.parts[1].queue.Len())
	}

	// The parts done, the seam pass checks ctx before it seeds and while it
	// drains its queue. An 8 x 8 grid leaves it enough seam for the second.
	for _, seeding := range []bool{false, true} {
		w := new(work)
		w.init(m, data, target, EdgeLength, false, 0, 8, 8)
		if err := w.runParts(context.Background(), nil); err != nil {
			t.Fatal(err)
		}
		ctx := ctx // cancelled by the first part above
		if seeding {
			ctx, w.prio = cancelling()
		}
		if err := w.seamPass(ctx, target); err != context.Canceled {
			t.Fatalf("seam pass cancelled (while seeding: %v): err = %v, want context.Canceled", seeding, err)
		}
		s := &w.parts[len(w.parts)-1]
		if seeding && s.collapses == s.quota || !seeding && s.collapses != 0 {
			t.Errorf("seam pass cancelled (while seeding: %v) made %d of its %d collapses", seeding, s.collapses, s.quota)
		}
	}
}
