package bench

import (
	"bytes"
	"context"
	"io"
	"math"
	"os"
	"strconv"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
)

// results holds each figure computed so far, by scale and id, so that a
// test binary computes each at most once however many tests read it: a
// paper-scale figure takes seconds, more under the race detector.
var results = struct {
	sync.Mutex
	m map[Scale]map[string]*figure
}{m: map[Scale]map[string]*figure{ScalePaper: {}, ScaleQuick: {}}}

// result returns figure id computed at scale.
func result(t *testing.T, scale Scale, id string) *figure {
	t.Helper()
	results.Lock()
	defer results.Unlock()
	if f, ok := results.m[scale][id]; ok {
		return f
	}
	for _, d := range drivers {
		if d.id == id {
			f, err := d.run(New(io.Discard, scale))
			if err != nil {
				t.Fatalf("figure %s: %v", id, err)
			}
			results.m[scale][id] = f
			return f
		}
	}
	t.Fatalf("no figure %q", id)
	return nil
}

// runFig renders one figure at quick scale and returns its output.
func runFig(t *testing.T, id string) string {
	t.Helper()
	var buf bytes.Buffer
	if err := New(&buf, ScaleQuick).render(result(t, ScaleQuick, id)); err != nil {
		t.Fatalf("figure %s: %v", id, err)
	}
	return buf.String()
}

// tableOf returns the table of f whose caption contains s.
func tableOf(t *testing.T, f *figure, s string) table {
	t.Helper()
	for _, tb := range f.tables {
		if strings.Contains(tb.caption, s) {
			return tb
		}
	}
	t.Fatalf("%s: no table captioned %q", f.title, s)
	return table{}
}

// value returns the number of tb in the row labelled label, under the
// first column head starting with head.
func value(t *testing.T, tb table, label, head string) float64 {
	t.Helper()
	col := -1
	for i, h := range tb.heads[1:] {
		if strings.HasPrefix(h, head) {
			col = i
			break
		}
	}
	for _, rw := range tb.rows {
		if rw.label == label && col >= 0 {
			return rw.vals[col]
		}
	}
	t.Fatalf("table %q has no cell (%q, %q)", tb.caption, label, head)
	return 0
}

func TestFig4ProducesStats(t *testing.T) {
	out := runFig(t, "4")
	for _, want := range []string{"XGC1", "GenASiS", "CFD", "delta0-1", "stddev"} {
		if !strings.Contains(out, want) {
			t.Errorf("Fig4 output missing %q", want)
		}
	}
}

func TestFig5ProducesAllLevelRows(t *testing.T) {
	out := runFig(t, "5")
	for _, want := range []string{"direct", "canopus", "improvement"} {
		if !strings.Contains(out, want) {
			t.Errorf("Fig5 output missing %q", want)
		}
	}
	// Three apps x four level rows.
	if n := strings.Count(out, "%"); n < 12 {
		t.Errorf("Fig5 printed %d improvement cells, want >= 12", n)
	}
}

func TestFig6aStaticSeries(t *testing.T) {
	out := runFig(t, "6a")
	for _, want := range []string{"2009", "2024", "flops"} {
		if !strings.Contains(out, want) {
			t.Errorf("Fig6a output missing %q", want)
		}
	}
}

func TestFig6bScenarios(t *testing.T) {
	out := runFig(t, "6b")
	for _, want := range []string{"High", "Medium", "Low", "decimation", "I/O"} {
		if !strings.Contains(out, want) {
			t.Errorf("Fig6b output missing %q", want)
		}
	}
}

func TestFig7Gallery(t *testing.T) {
	out := runFig(t, "7")
	if !strings.Contains(out, "L0 (full accuracy") {
		t.Error("Fig7 missing full-accuracy panel")
	}
	if !strings.Contains(out, "blobs") {
		t.Error("Fig7 missing blob counts")
	}
}

func TestFig8AllConfigs(t *testing.T) {
	out := runFig(t, "8")
	for _, want := range []string{"Config1", "Config2", "Config3", "overlap ratio", "None"} {
		if !strings.Contains(out, want) {
			t.Errorf("Fig8 output missing %q", want)
		}
	}
}

func TestFig9Pipeline(t *testing.T) {
	out := runFig(t, "9")
	for _, want := range []string{"end-to-end", "restoring full accuracy", "blob detect", "None"} {
		if !strings.Contains(out, want) {
			t.Errorf("Fig9 output missing %q", want)
		}
	}
}

func TestFig10And11(t *testing.T) {
	out := runFig(t, "10")
	if !strings.Contains(out, "GenASiS") {
		t.Error("Fig10 missing workload header")
	}
	out = runFig(t, "11")
	if !strings.Contains(out, "CFD") {
		t.Error("Fig11 missing workload header")
	}
}

func TestAblation(t *testing.T) {
	out := runFig(t, "ablation")
	for _, want := range []string{"estimator", "priority", "codec", "placement"} {
		if !strings.Contains(out, want) {
			t.Errorf("ablation output missing %q", want)
		}
	}
}

// TestToleranceSweepSelfAsserts sweeps RetrieveToTolerance over the quick
// CFD workload: every per-level bound the refactoring recorded plus the
// geometric midpoints between adjacent bounds (which must round up to the
// finer level). Each point's measured error must stay within eps, and any
// plan that stops above full accuracy must move fewer modeled bytes.
func TestToleranceSweepSelfAsserts(t *testing.T) {
	ctx := context.Background()
	r := New(io.Discard, ScaleQuick)
	ds := r.cfd()
	aio := newIO()
	rep, err := core.Write(ctx, aio, ds, core.Options{Levels: 3, Chunks: 2, Workers: r.Workers})
	if err != nil {
		t.Fatal(err)
	}
	rd, err := core.OpenReader(ctx, aio, ds.Name)
	if err != nil {
		t.Fatal(err)
	}
	rd.SetWorkers(r.Workers)
	// Warm the mesh/mapping caches, then take the steady-state cost of full
	// accuracy as the baseline every early-stopping plan is compared to.
	if _, err := rd.Retrieve(ctx, 0); err != nil {
		t.Fatal(err)
	}
	full, err := rd.Retrieve(ctx, 0)
	if err != nil {
		t.Fatal(err)
	}

	var epses []float64
	for l, b := range rep.Bounds {
		epses = append(epses, b)
		if l+1 < len(rep.Bounds) {
			epses = append(epses, math.Sqrt(b*rep.Bounds[l+1]))
		}
	}
	if len(epses) < 3 {
		t.Fatalf("sweep has %d points, want at least one per level", len(epses))
	}
	for _, eps := range epses {
		v, err := rd.RetrieveToTolerance(ctx, eps)
		if err != nil {
			t.Fatalf("eps %g: %v", eps, err)
		}
		if v.Degradation != nil {
			t.Fatalf("eps %g degraded: %s", eps, v.Degradation.Reason)
		}
		prol, err := rd.ProlongToFinest(ctx, v)
		if err != nil {
			t.Fatalf("eps %g: %v", eps, err)
		}
		var achieved float64
		for i, x := range prol {
			if d := math.Abs(x - ds.Data[i]); d > achieved {
				achieved = d
			}
		}
		if achieved > eps {
			t.Errorf("eps %g landed at level %d with achieved error %g > eps", eps, v.Level, achieved)
		}
		if v.Level > 0 && v.Timings.IOBytes >= full.Timings.IOBytes {
			t.Errorf("eps %g stopped at level %d but moved %dB >= full %dB",
				eps, v.Level, v.Timings.IOBytes, full.Timings.IOBytes)
		}
	}
}

func TestRunUnknownFigure(t *testing.T) {
	for _, id := range []string{"99", "6"} {
		var buf bytes.Buffer
		if err := New(&buf, ScaleQuick).Run(id); err == nil {
			t.Errorf("unknown figure %q accepted", id)
		}
	}
}

func TestFiguresListMatchesDispatch(t *testing.T) {
	for _, id := range Figures() {
		var buf bytes.Buffer
		if err := New(&buf, ScaleQuick).Run(id); err != nil {
			t.Fatalf("figure %s from Figures() failed: %v", id, err)
		}
	}
}

func TestLevelsForRatio(t *testing.T) {
	cases := map[int]int{1: 1, 2: 2, 4: 3, 8: 4, 16: 5, 32: 6}
	for ratio, want := range cases {
		if got := levelsForRatio(ratio); got != want {
			t.Errorf("levelsForRatio(%d) = %d, want %d", ratio, got, want)
		}
	}
}

func TestFmtBytes(t *testing.T) {
	cases := map[int64]string{
		512:     "512 B",
		2048:    "2.0 KiB",
		1 << 21: "2.00 MiB",
	}
	for in, want := range cases {
		if got := fmtBytes(in); got != want {
			t.Errorf("fmtBytes(%d) = %q, want %q", in, got, want)
		}
	}
}

// TestFig4Shape checks Figure 4's claim at paper scale: on every
// application, the stddev of each delta is at least five times below the
// stddev of the full-accuracy level L0. The smallest ratio is 5.9x, for
// CFD's delta1-2.
func TestFig4Shape(t *testing.T) {
	const factor = 5
	f := result(t, ScalePaper, "4")
	if len(f.tables) != 3 {
		t.Fatalf("%d application tables, want 3", len(f.tables))
	}
	for _, tb := range f.tables {
		l0 := value(t, tb, "L0", "stddev")
		for _, d := range []string{"delta0-1", "delta1-2"} {
			if s := value(t, tb, d, "stddev"); factor*s >= l0 {
				t.Errorf("%s %s: stddev %.4f is not %dx below L0's %.4f", tb.caption, d, s, factor, l0)
			}
		}
	}
}

// TestFig5Shape checks Figure 5's claim at paper scale: for each
// application, compressing base plus deltas (Canopus) stores the same
// payload as compressing every level directly at one level, where no delta
// exists, strictly less at two or more, and its improvement over the direct
// payload does not shrink as levels are added from two to four. The sizes
// are normalized by one raw size per application, so equal sizes are equal
// payloads.
func TestFig5Shape(t *testing.T) {
	f := result(t, ScalePaper, "5")
	for _, app := range []string{"XGC1", "GenASiS", "CFD"} {
		tb := tableOf(t, f, app)
		t.Run(app, func(t *testing.T) {
			prev := math.Inf(-1)
			for n := 1; n <= 4; n++ {
				label := strconv.Itoa(n)
				direct := value(t, tb, label, "direct")
				canopus := value(t, tb, label, "canopus")
				improve := value(t, tb, label, "improvement")
				switch {
				case n == 1 && canopus != direct:
					t.Errorf("1 level: canopus stores %.4f, direct %.4f; want equal", canopus, direct)
				case n >= 2 && canopus >= direct:
					t.Errorf("%d levels: canopus stores %.4f, direct %.4f; want strictly less", n, canopus, direct)
				case n > 2 && improve < prev:
					t.Errorf("%d levels: improvement %.2f%% fell from %.2f%% at %d", n, improve, prev, n-1)
				}
				if n >= 2 {
					prev = improve
				}
			}
		})
	}
}

// TestFig6bShape checks Figure 6b's claim at paper scale: the I/O share of
// the write rises strictly from 32 to 128 to 512 cores, as the per-core
// compute shrinks while all cores share one storage target.
func TestFig6bShape(t *testing.T) {
	tb := result(t, ScalePaper, "6b").tables[0]
	prev := math.Inf(-1)
	for _, rw := range tb.rows {
		share := value(t, tb, rw.label, "I/O")
		if share <= prev {
			t.Errorf("%s: I/O share %.1f%% does not exceed %.1f%% with fewer cores", rw.label, share, prev)
		}
		prev = share
	}
	if len(tb.rows) != 3 {
		t.Errorf("%d scenarios, want 3", len(tb.rows))
	}
}

// TestFig8Shape checks Figure 8's claims at paper scale only: at quick
// scale Config2 detects no blob at all and Config1's count goes 6 → 4 →
// 5 → 5. For Config1 and Config3 the blob count does not rise from None to
// 16x (at 32x merged neighbours raise it again), and for every
// configuration the overlap with the full-accuracy blobs stays at or above
// 0.9 at every ratio.
func TestFig8Shape(t *testing.T) {
	const overlapFloor = 0.9
	f := result(t, ScalePaper, "8")
	for _, cfg := range []string{"Config1", "Config3"} {
		tb := tableOf(t, f, cfg)
		prev := math.Inf(1)
		for _, ratio := range []string{"None", "2x", "4x", "8x", "16x"} {
			n := value(t, tb, ratio, "#blobs")
			if n > prev {
				t.Errorf("%s %s: %.0f blobs, up from %.0f", cfg, ratio, n, prev)
			}
			prev = n
		}
	}
	for _, tb := range f.tables {
		for _, rw := range tb.rows {
			if o := value(t, tb, rw.label, "overlap"); o < overlapFloor {
				t.Errorf("%s %s: overlap %.2f below %.2f", tb.caption, rw.label, o, overlapFloor)
			}
		}
	}
}

// TestFig9To11Shape checks Figures 9–11 at quick scale on their modeled,
// machine-independent columns: (a) every reduced-accuracy level moves less
// modeled I/O and fewer bytes than reading the raw data (None), and (b)
// restoring full accuracy from base plus deltas moves less modeled I/O than
// None at the ratios listed. At quick scale the deepest hierarchies do not
// beat None (Fig. 9's 8x reads 4.73 ms against 4.49 ms), so those ratios
// are left out; at paper scale every ratio beats it.
func TestFig9To11Shape(t *testing.T) {
	for _, c := range []struct {
		id      string
		restore []string
	}{
		{"9", []string{"2x", "4x"}},
		{"10", []string{"2x", "4x"}},
		{"11", []string{"2x"}},
	} {
		t.Run("fig"+c.id, func(t *testing.T) {
			f := result(t, ScaleQuick, c.id)
			a, b := f.tables[0], f.tables[1]
			noneIO, noneBytes := value(t, a, "None", "I/O"), value(t, a, "None", "bytes")
			for _, rw := range a.rows[1:] {
				if ms, n := value(t, a, rw.label, "I/O"), value(t, a, rw.label, "bytes"); ms >= noneIO || n >= noneBytes {
					t.Errorf("(a) %s: %.2f ms and %.0f B, None %.2f ms and %.0f B", rw.label, ms, n, noneIO, noneBytes)
				}
			}
			noneIO = value(t, b, "None", "I/O")
			for _, ratio := range c.restore {
				if ms := value(t, b, ratio, "I/O"); ms >= noneIO {
					t.Errorf("(b) %s: full-accuracy restore reads %.2f ms, None %.2f ms", ratio, ms, noneIO)
				}
			}
		})
	}
}

// TestAblationShape checks the ablation's claims at quick scale (they hold
// at paper scale too): the barycentric estimator stores a smaller payload
// than the paper's mean; the error-bounded codecs (zfp, sz) store less than
// the lossless ones (fpc, flate), which stay below twice the raw size; the
// tiered base read moves less modeled I/O than the flat one; the series
// writer stores fewer bytes than standalone writes; and shortest-edge
// collapse keeps at least as many blobs as hash order.
func TestAblationShape(t *testing.T) {
	f := result(t, ScaleQuick, "ablation")
	est := tableOf(t, f, "estimator")
	if bary, mean := value(t, est, "barycentric", "normalized"), value(t, est, "mean", "normalized"); bary >= mean {
		t.Errorf("barycentric stores %.4f, mean %.4f; want less", bary, mean)
	}
	codec := tableOf(t, f, "codec")
	for _, lossless := range []string{"fpc", "flate"} {
		l := value(t, codec, lossless, "normalized")
		if l >= 2 {
			t.Errorf("%s stores %.4f of raw; want below 2", lossless, l)
		}
		for _, bounded := range []string{"zfp", "sz"} {
			if b := value(t, codec, bounded, "normalized"); b >= l {
				t.Errorf("%s stores %.4f, %s %.4f; want less", bounded, b, lossless, l)
			}
		}
	}
	place := tableOf(t, f, "placement")
	if tiered, flat := value(t, place, "tiered (Canopus)", "base"), value(t, place, "flat (PFS only)", "base"); tiered >= flat {
		t.Errorf("tiered base read %.2f ms, flat %.2f ms; want less", tiered, flat)
	}
	series := tableOf(t, f, "campaign")
	if s, a := value(t, series, "series (shared hierarchy)", "stored"), value(t, series, "standalone", "stored"); s >= a {
		t.Errorf("series stores %.0f B, standalone %.0f B; want fewer", s, a)
	}
	prio := tableOf(t, f, "priority")
	if se, h := value(t, prio, "shortest-edge", "#blobs"), value(t, prio, "hash-order", "#blobs"); se < h {
		t.Errorf("shortest-edge keeps %.0f blobs, hash order %.0f; want at least as many", se, h)
	}
}

// TestExperimentsTables checks EXPERIMENTS.md's fixed numbers against the
// paper-scale results, at the precision the document prints: Fig. 4's
// stddev table, Fig. 5's normalized sizes and improvement at four levels,
// and Fig. 8's Config1 blob counts. Wall-time columns are not compared.
func TestExperimentsTables(t *testing.T) {
	doc, err := os.ReadFile("../../EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	// numbers maps the first cell of each markdown table row to the
	// numbers in the row's other cells, split at "/" and "→".
	numbers := map[string][]string{}
	for _, line := range strings.Split(string(doc), "\n") {
		if !strings.HasPrefix(line, "|") {
			continue
		}
		cells := strings.Split(strings.Trim(line, "| "), "|")
		var nums []string
		for _, c := range cells[1:] {
			for _, n := range strings.FieldsFunc(c, func(r rune) bool { return r == '/' || r == '→' }) {
				nums = append(nums, strings.Trim(n, " *%"))
			}
		}
		numbers[strings.TrimSpace(cells[0])] = nums
	}
	check := func(key string, got ...float64) {
		t.Helper()
		printed := numbers[key]
		if len(printed) < len(got) {
			t.Errorf("EXPERIMENTS.md row %q has %d numbers, want at least %d", key, len(printed), len(got))
			return
		}
		for i, g := range got {
			if !near(printed[i], g) {
				t.Errorf("EXPERIMENTS.md row %q prints %s where the figure gives %g", key, printed[i], g)
			}
		}
	}

	f4 := result(t, ScalePaper, "4")
	f5 := result(t, ScalePaper, "5")
	for _, app := range []struct{ fig, row4, row5 string }{
		{"XGC1", "XGC1 dpot", "XGC1 direct / canopus"},
		{"GenASiS", "GenASiS normVec", "GenASiS direct / canopus"},
		{"CFD", "CFD pressure", "CFD direct / canopus"},
	} {
		tb := tableOf(t, f4, app.fig)
		check(app.row4, value(t, tb, "L0", "stddev"), value(t, tb, "delta0-1", "stddev"), value(t, tb, "delta1-2", "stddev"))
		tb = tableOf(t, f5, app.fig)
		var got []float64
		for _, rw := range tb.rows {
			got = append(got, value(t, tb, rw.label, "direct"), value(t, tb, rw.label, "canopus"))
		}
		check(app.row5, append(got, value(t, tb, "4", "improvement"))...)
	}
	tb := tableOf(t, result(t, ScalePaper, "8"), "Config1")
	var counts []float64
	for _, rw := range tb.rows {
		counts = append(counts, value(t, tb, rw.label, "#blobs"))
	}
	check("Config1 ⟨10,200,100⟩", counts...)
}

// near reports whether num, a number as a document prints it, is got to
// the printed precision: within one unit of its last digit, so that both a
// rounded and a truncated figure pass.
func near(num string, got float64) bool {
	v, err := strconv.ParseFloat(num, 64)
	if err != nil {
		return false
	}
	unit := 1.0
	if i := strings.IndexByte(num, '.'); i >= 0 {
		unit = math.Pow(10, -float64(len(num)-i-1))
	}
	return math.Abs(v-got) < unit
}
