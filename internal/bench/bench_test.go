package bench

import (
	"bytes"
	"context"
	"io"
	"math"
	"strings"
	"testing"

	"repro/internal/core"
)

// runFig executes one figure at quick scale and returns its output.
func runFig(t *testing.T, id string) string {
	t.Helper()
	var buf bytes.Buffer
	r := New(&buf, ScaleQuick)
	if err := r.Run(id); err != nil {
		t.Fatalf("figure %s: %v", id, err)
	}
	return buf.String()
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
	var buf bytes.Buffer
	if err := New(&buf, ScaleQuick).Run("99"); err == nil {
		t.Fatal("unknown figure accepted")
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

// TestFig5Shape checks Figure 5's claim at paper scale instead of printing
// it: for each application, compressing base plus deltas (Canopus) stores
// the same payload as compressing every level directly at one level, where
// no delta exists, strictly less at two or more, and its improvement over
// the direct payload does not shrink as levels are added from two to four.
func TestFig5Shape(t *testing.T) {
	r := New(io.Discard, ScalePaper)
	apps := []struct {
		name string
		ds   *core.Dataset
	}{
		{"XGC1", r.xgc1().Dataset},
		{"GenASiS", r.genasis()},
		{"CFD", r.cfd()},
	}
	const relTol = 1e-4
	for _, app := range apps {
		t.Run(app.name, func(t *testing.T) {
			prev := math.Inf(-1)
			for n := 1; n <= 4; n++ {
				direct, err := fig5Payload(app.ds, n, core.ModeDirect, relTol, r.Workers)
				if err != nil {
					t.Fatal(err)
				}
				canopus, err := fig5Payload(app.ds, n, core.ModeDelta, relTol, r.Workers)
				if err != nil {
					t.Fatal(err)
				}
				improve := (direct.normalized - canopus.normalized) / direct.normalized
				t.Logf("levels=%d direct %.4f canopus %.4f improvement %.1f%%", n, direct.normalized, canopus.normalized, 100*improve)
				switch {
				case n == 1 && canopus.payloadBytes != direct.payloadBytes:
					t.Errorf("1 level: canopus stores %d bytes, direct %d; want equal", canopus.payloadBytes, direct.payloadBytes)
				case n >= 2 && canopus.payloadBytes >= direct.payloadBytes:
					t.Errorf("%d levels: canopus stores %d bytes, direct %d; want strictly fewer", n, canopus.payloadBytes, direct.payloadBytes)
				case n > 2 && improve < prev:
					t.Errorf("%d levels: improvement %.2f%% fell from %.2f%% at %d", n, 100*improve, 100*prev, n-1)
				}
				if n >= 2 {
					prev = improve
				}
			}
		})
	}
}
