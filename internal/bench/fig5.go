package bench

import (
	"fmt"

	"repro/internal/core"
)

// fig5 reproduces "Canopus vs. direct compression": for each application and
// each total level count 1–4, compress (a) every level directly and (b) the
// base plus deltas — both with the ZFP-like codec — and report the
// normalized stored size (compressed payload / raw full-accuracy size). The
// paper reports Canopus improving the ratio by 14% (XGC1) up to 62.5%
// (GenASiS) at deeper level counts.
func (r *Runner) fig5() (*figure, error) {
	f := &figure{title: "Figure 5: Canopus vs direct multi-level compression (normalized size)"}
	apps := []struct {
		name string
		ds   func() *core.Dataset
	}{
		{"XGC1 (dpot)", func() *core.Dataset { return r.xgc1().Dataset }},
		{"GenASiS (normVec magnitude)", r.genasis},
		{"CFD (pressure)", r.cfd},
	}
	for _, app := range apps {
		t := table{
			caption: "-- " + app.name + " --",
			heads:   []string{"levels", "direct", "canopus", "improvement"},
			formats: []string{"%.4f", "%.4f", "%.1f%%"},
		}
		for n := 1; n <= 4; n++ {
			opts := core.Options{Levels: n, RelTolerance: 1e-4, Mode: core.ModeDirect, Workers: r.Workers}
			_, direct, err := storedPayload(app.ds(), opts)
			if err != nil {
				return nil, fmt.Errorf("%s direct n=%d: %w", app.name, n, err)
			}
			opts.Mode = core.ModeDelta
			_, canopus, err := storedPayload(app.ds(), opts)
			if err != nil {
				return nil, fmt.Errorf("%s canopus n=%d: %w", app.name, n, err)
			}
			improve := 0.0
			if direct > 0 {
				improve = (direct - canopus) / direct * 100
			}
			t.rows = append(t.rows, row{fmt.Sprint(n), []float64{direct, canopus, improve}})
		}
		f.tables = append(f.tables, t)
	}
	return f, nil
}
