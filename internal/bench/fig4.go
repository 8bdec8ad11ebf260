package bench

import (
	"context"
	"fmt"
	"math"
	"strings"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/decimate"
	"repro/internal/delta"
	"repro/internal/mesh"
)

// fig4 reproduces the data-refactoring gallery: for each application it
// builds three levels (d = 2 per level, 4x total like the paper's L2) and
// reports the statistic the figure shows visually — the deltas between
// adjacent levels are much less variable than the levels themselves, which
// is what makes them compress well (§III-C2, "delta is less variable than
// L^l").
func (r *Runner) fig4() (*figure, error) {
	f := &figure{title: "Figure 4: data refactoring (levels vs deltas)"}
	apps := []struct {
		name string
		ds   *core.Dataset
	}{
		{"XGC1 (dpot)", r.xgc1().Dataset},
		{"GenASiS (normVec magnitude)", r.genasis()},
		{"CFD (pressure)", r.cfd()},
	}
	for _, app := range apps {
		t, err := r.fig4App(app.ds)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", app.name, err)
		}
		t.caption = "-- " + app.name + " --"
		f.tables = append(f.tables, t)
	}
	return f, nil
}

type fig4Level struct {
	mesh *mesh.Mesh
	data []float64
}

func (r *Runner) fig4App(ds *core.Dataset) (table, error) {
	const levels = 3
	lv := []fig4Level{{ds.Mesh, ds.Data}}
	for l := 0; l < levels-1; l++ {
		cur := lv[l]
		res, err := decimate.Decimate(cur.mesh, cur.data,
			decimate.TargetForRatio(cur.mesh.NumVerts(), 2), decimate.Options{})
		if err != nil {
			return table{}, err
		}
		lv = append(lv, fig4Level{res.Coarse, res.Data})
	}
	deltas := make([][]float64, levels-1)
	for l := 0; l < levels-1; l++ {
		mp, err := delta.Build(lv[l].mesh, lv[l+1].mesh)
		if err != nil {
			return table{}, err
		}
		d, err := delta.ComputeInto(context.Background(), nil, lv[l].mesh, lv[l].data, lv[l+1].mesh, lv[l+1].data, mp, delta.MeanEstimator{}, nil)
		if err != nil {
			return table{}, err
		}
		deltas[l] = d
	}

	t := table{
		heads:   []string{"product", "vertices", "min", "max", "stddev"},
		formats: []string{"%.0f", "%+.3f", "%+.3f", "%.4f"},
	}
	stats := func(label string, n int, x []float64) {
		lo, hi := math.Inf(1), math.Inf(-1)
		for _, v := range x {
			lo = math.Min(lo, v)
			hi = math.Max(hi, v)
		}
		t.rows = append(t.rows, row{label, []float64{float64(n), lo, hi, analysis.StdDev(x)}})
	}
	for l, v := range lv {
		stats(fmt.Sprintf("L%d", l), v.mesh.NumVerts(), v.data)
	}
	for l, d := range deltas {
		stats(fmt.Sprintf("delta%d-%d", l, l+1), lv[l].mesh.NumVerts(), d)
	}

	if r.ASCII {
		var art strings.Builder
		for l := 0; l < levels; l += 2 { // L0 and L2 like the paper panels
			ras, err := analysis.Rasterize(lv[l].mesh, lv[l].data, 160, 160)
			if err != nil {
				return table{}, err
			}
			fmt.Fprintf(&art, "\nL%d:\n%s", l, ras.RenderASCII(72))
		}
		ras, err := analysis.Rasterize(lv[0].mesh, deltas[0], 160, 160)
		if err != nil {
			return table{}, err
		}
		fmt.Fprintf(&art, "\ndelta0-1:\n%s", ras.RenderASCII(72))
		t.gallery = art.String()
	}
	return t, nil
}
