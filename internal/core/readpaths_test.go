package core

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"strconv"
	"strings"
	"testing"

	"repro/internal/adios"
	"repro/internal/mesh"
)

// readPathsGolden pins what every read path returns over three archives — a
// delta-mode Write with 4x4 delta tiles, a direct-mode Write, and a 3-step
// campaign — read by fresh readers ("cold": one new reader per read) and by
// one reader that has already restored full accuracy ("warm"). Each line is
// one read: accuracy level, error bound, a digest of the restored bits (and
// of Have, for region reads), the modeled I/O billed to the view in bytes
// and seconds, the CostReport's modeled bytes (-1 for a view that carries
// none), the degradation verdict as requested/achieved level, and for
// campaigns the reader's HierarchyCost after the read. Reads at workers 1
// and 4 must produce the same lines.
var readPathsGolden = map[string][]string{
	"write/delta/cold": {
		"retrieve 0: L0 bound=8.884036627336806e-06 data=8458aa5fb8072102 have=- io=11906/0.004040953167 modeled=11906 deg=- hier=-",
		"retrieve 1: L1 bound=0.20889129422426506 data=3fe19b916566b060 have=- io=7665/0.002616853167 modeled=7665 deg=- hier=-",
		"retrieve 2: L2 bound=0.4808484093331313 data=855135fec3d07d42 have=- io=4263/0.001276653167 modeled=4263 deg=- hier=-",
		"retrieve 3: L3 bound=0.8690061426643385 data=ebd92d204c46471b have=- io=1519/2.253166667e-06 modeled=1519 deg=- hier=-",
		"tolerance 0: L3 bound=0.8690061426643385 data=ebd92d204c46471b have=- io=1519/2.253166667e-06 modeled=1519 deg=- hier=-",
		"tolerance 1: L1 bound=0.20889129422426506 data=3fe19b916566b060 have=- io=7665/0.002616853167 modeled=7665 deg=- hier=-",
		"tolerance 2: L0 bound=8.884036627336806e-06 data=8458aa5fb8072102 have=- io=11906/0.004040953167 modeled=11906 deg=0/0 hier=-",
		"region 0: L0 bound=8.884036627336806e-06 data=ab0273ae0c36f88c have=196350585cd65fdb io=9438/0.003794153167 modeled=9438 deg=- hier=-",
		"region 1: L1 bound=0.20889129422426506 data=5cbcfdb9a3b0942f have=c5a974f30d698869 io=6500/0.002500353167 modeled=6500 deg=- hier=-",
		"subscribe 0 view 0: L3 bound=0.8690061426643385 data=ebd92d204c46471b have=- io=1519/2.253166667e-06 modeled=-1 deg=- hier=-",
		"subscribe 0 view 1: L2 bound=0.4808484093331313 data=855135fec3d07d42 have=- io=4263/0.001276653167 modeled=-1 deg=- hier=-",
		"subscribe 0 view 2: L1 bound=0.20889129422426506 data=3fe19b916566b060 have=- io=7665/0.002616853167 modeled=7665 deg=- hier=-",
		"subscribe 1 view 0: L3 bound=0.8690061426643385 data=ebd92d204c46471b have=- io=1519/2.253166667e-06 modeled=-1 deg=- hier=-",
		"subscribe 1 view 1: L2 bound=0.4808484093331313 data=855135fec3d07d42 have=- io=4263/0.001276653167 modeled=-1 deg=- hier=-",
		"subscribe 1 view 2: L1 bound=0.20889129422426506 data=3fe19b916566b060 have=- io=7665/0.002616853167 modeled=-1 deg=- hier=-",
		"subscribe 1 view 3: L0 bound=8.884036627336806e-06 data=8458aa5fb8072102 have=- io=11906/0.004040953167 modeled=11906 deg=0/0 hier=-",
	},
	"write/delta/warm": {
		"retrieve 0: L0 bound=8.884036627336806e-06 data=8458aa5fb8072102 have=- io=6763/0.003641062167 modeled=6763 deg=- hier=-",
		"retrieve 1: L1 bound=0.20889129422426506 data=3fe19b916566b060 have=- io=3759/0.002340662167 modeled=3759 deg=- hier=-",
		"retrieve 2: L2 bound=0.4808484093331313 data=855135fec3d07d42 have=- io=1827/0.001147462167 modeled=1827 deg=- hier=-",
		"retrieve 3: L3 bound=0.8690061426643385 data=ebd92d204c46471b have=- io=373/2.062166667e-06 modeled=373 deg=- hier=-",
		"tolerance 0: L3 bound=0.8690061426643385 data=ebd92d204c46471b have=- io=373/2.062166667e-06 modeled=373 deg=- hier=-",
		"tolerance 1: L1 bound=0.20889129422426506 data=3fe19b916566b060 have=- io=3759/0.002340662167 modeled=3759 deg=- hier=-",
		"tolerance 2: L0 bound=8.884036627336806e-06 data=8458aa5fb8072102 have=- io=6763/0.003641062167 modeled=6763 deg=0/0 hier=-",
		"region 0: L0 bound=8.884036627336806e-06 data=ab0273ae0c36f88c have=196350585cd65fdb io=4295/0.003394262167 modeled=4295 deg=- hier=-",
		"region 1: L1 bound=0.20889129422426506 data=5cbcfdb9a3b0942f have=c5a974f30d698869 io=2594/0.002224162167 modeled=2594 deg=- hier=-",
		"subscribe 0 view 0: L3 bound=0.8690061426643385 data=ebd92d204c46471b have=- io=373/2.062166667e-06 modeled=-1 deg=- hier=-",
		"subscribe 0 view 1: L2 bound=0.4808484093331313 data=855135fec3d07d42 have=- io=1827/0.001147462167 modeled=-1 deg=- hier=-",
		"subscribe 0 view 2: L1 bound=0.20889129422426506 data=3fe19b916566b060 have=- io=3759/0.002340662167 modeled=3759 deg=- hier=-",
		"subscribe 1 view 0: L3 bound=0.8690061426643385 data=ebd92d204c46471b have=- io=373/2.062166667e-06 modeled=-1 deg=- hier=-",
		"subscribe 1 view 1: L2 bound=0.4808484093331313 data=855135fec3d07d42 have=- io=1827/0.001147462167 modeled=-1 deg=- hier=-",
		"subscribe 1 view 2: L1 bound=0.20889129422426506 data=3fe19b916566b060 have=- io=3759/0.002340662167 modeled=-1 deg=- hier=-",
		"subscribe 1 view 3: L0 bound=8.884036627336806e-06 data=8458aa5fb8072102 have=- io=6763/0.003641062167 modeled=6763 deg=0/0 hier=-",
	},
	"write/direct/cold": {
		"retrieve 0: L0 bound=2.2210091568342014e-06 data=cd684c97ea7f0451 have=- io=3316/0.0013316 modeled=3316 deg=- hier=-",
		"retrieve 1: L1 bound=0.20888685220595138 data=208d935836f1e713 have=- io=2500/0.00125 modeled=2500 deg=- hier=-",
		"retrieve 2: L2 bound=0.4808461883239744 data=0d030e4d375a9aab have=- io=1836/0.0011836 modeled=1836 deg=- hier=-",
		"retrieve 3: L3 bound=0.8690061426643385 data=ebd92d204c46471b have=- io=1519/2.253166667e-06 modeled=1519 deg=- hier=-",
		"tolerance 0: L3 bound=0.8690061426643385 data=ebd92d204c46471b have=- io=1519/2.253166667e-06 modeled=1519 deg=- hier=-",
		"tolerance 1: L1 bound=0.20888685220595138 data=208d935836f1e713 have=- io=2500/0.00125 modeled=2500 deg=- hier=-",
		"tolerance 2: L0 bound=2.2210091568342014e-06 data=cd684c97ea7f0451 have=- io=3316/0.0013316 modeled=3316 deg=0/0 hier=-",
		"subscribe 0 view 0: L3 bound=0.8690061426643385 data=ebd92d204c46471b have=- io=1519/2.253166667e-06 modeled=-1 deg=- hier=-",
		"subscribe 0 view 1: L2 bound=0.4808461883239744 data=0d030e4d375a9aab have=- io=3355/0.001185853167 modeled=-1 deg=- hier=-",
		"subscribe 0 view 2: L1 bound=0.20888685220595138 data=208d935836f1e713 have=- io=5855/0.002435853167 modeled=5855 deg=- hier=-",
		"subscribe 1 view 0: L3 bound=0.8690061426643385 data=ebd92d204c46471b have=- io=1519/2.253166667e-06 modeled=-1 deg=- hier=-",
		"subscribe 1 view 1: L2 bound=0.4808461883239744 data=0d030e4d375a9aab have=- io=3355/0.001185853167 modeled=-1 deg=- hier=-",
		"subscribe 1 view 2: L1 bound=0.20888685220595138 data=208d935836f1e713 have=- io=5855/0.002435853167 modeled=-1 deg=- hier=-",
		"subscribe 1 view 3: L0 bound=2.2210091568342014e-06 data=cd684c97ea7f0451 have=- io=9171/0.003767453167 modeled=9171 deg=0/0 hier=-",
	},
	"write/direct/warm": {
		"retrieve 0: L0 bound=2.2210091568342014e-06 data=cd684c97ea7f0451 have=- io=2230/0.001223 modeled=2230 deg=- hier=-",
		"retrieve 1: L1 bound=0.20888685220595138 data=208d935836f1e713 have=- io=2500/0.00125 modeled=2500 deg=- hier=-",
		"retrieve 2: L2 bound=0.4808461883239744 data=0d030e4d375a9aab have=- io=1836/0.0011836 modeled=1836 deg=- hier=-",
		"retrieve 3: L3 bound=0.8690061426643385 data=ebd92d204c46471b have=- io=1519/2.253166667e-06 modeled=1519 deg=- hier=-",
		"tolerance 0: L3 bound=0.8690061426643385 data=ebd92d204c46471b have=- io=373/2.062166667e-06 modeled=373 deg=- hier=-",
		"tolerance 1: L1 bound=0.20888685220595138 data=208d935836f1e713 have=- io=1172/0.0011172 modeled=1172 deg=- hier=-",
		"tolerance 2: L0 bound=2.2210091568342014e-06 data=cd684c97ea7f0451 have=- io=2230/0.001223 modeled=2230 deg=0/0 hier=-",
		"subscribe 0 view 0: L3 bound=0.8690061426643385 data=ebd92d204c46471b have=- io=373/2.062166667e-06 modeled=-1 deg=- hier=-",
		"subscribe 0 view 1: L2 bound=0.4808461883239744 data=0d030e4d375a9aab have=- io=1015/0.001066262167 modeled=-1 deg=- hier=-",
		"subscribe 0 view 2: L1 bound=0.20888685220595138 data=208d935836f1e713 have=- io=2187/0.002183462167 modeled=2187 deg=- hier=-",
		"subscribe 1 view 0: L3 bound=0.8690061426643385 data=ebd92d204c46471b have=- io=373/2.062166667e-06 modeled=-1 deg=- hier=-",
		"subscribe 1 view 1: L2 bound=0.4808461883239744 data=0d030e4d375a9aab have=- io=1015/0.001066262167 modeled=-1 deg=- hier=-",
		"subscribe 1 view 2: L1 bound=0.20888685220595138 data=208d935836f1e713 have=- io=2187/0.002183462167 modeled=-1 deg=- hier=-",
		"subscribe 1 view 3: L0 bound=2.2210091568342014e-06 data=cd684c97ea7f0451 have=- io=4417/0.003406462167 modeled=4417 deg=0/0 hier=-",
	},
	"series/delta/cold": {
		"step 0 level 0: L0 bound=9.999999999999999e-06 data=64959b7ba1d15f0a have=- io=4941/0.003470143333 modeled=4941 deg=- hier=5779/0.0034633945",
		"step 0 level 1: L1 bound=0.17499476503954947 data=0a70f5a8e8434cf9 have=- io=2770/0.002253043333 modeled=2770 deg=- hier=4453/0.0023307945",
		"step 0 level 2: L2 bound=0.4981023791443594 data=dc596d457a148361 have=- io=1318/0.001107843333 modeled=1318 deg=- hier=2737/0.0011591945",
		"step 0 level 3: L3 bound=0.8637289642367035 data=503b3b4943d250ed have=- io=260/2.043333333e-06 modeled=260 deg=- hier=1167/2.1945e-06",
		"step 1 level 0: L0 bound=9.999999999999999e-06 data=d9557af3890b8a31 have=- io=4939/0.003469643833 modeled=4939 deg=- hier=5779/0.0034633945",
		"step 1 level 1: L1 bound=0.17499476503954947 data=c58e6fe109207ef2 have=- io=2764/0.002252143833 modeled=2764 deg=- hier=4453/0.0023307945",
		"step 1 level 2: L2 bound=0.4981023791443594 data=d7f26d4ac2d37e98 have=- io=1319/0.001107643833 modeled=1319 deg=- hier=2737/0.0011591945",
		"step 1 level 3: L3 bound=0.8637289642367035 data=9835ef01d2dc79c4 have=- io=263/2.043833333e-06 modeled=263 deg=- hier=1167/2.1945e-06",
		"step 2 level 0: L0 bound=9.999999999999999e-06 data=67fd30ba0aa9c9cb have=- io=4945/0.0034704435 modeled=4945 deg=- hier=5779/0.0034633945",
		"step 2 level 1: L1 bound=0.17499476503954947 data=01d60fefed6ea66e have=- io=2759/0.0022518435 modeled=2759 deg=- hier=4453/0.0023307945",
		"step 2 level 2: L2 bound=0.4981023791443594 data=b03441a16ca08c60 have=- io=1316/0.0011075435 modeled=1316 deg=- hier=2737/0.0011591945",
		"step 2 level 3: L3 bound=0.8637289642367035 data=3f8ca96bf38bcd8b have=- io=261/2.0435e-06 modeled=261 deg=- hier=1167/2.1945e-06",
		"step 0 tolerance 0: L3 bound=0.8637289642367035 data=503b3b4943d250ed have=- io=260/2.043333333e-06 modeled=260 deg=- hier=1167/2.1945e-06",
		"step 0 tolerance 1: L1 bound=0.17499476503954947 data=0a70f5a8e8434cf9 have=- io=2770/0.002253043333 modeled=2770 deg=- hier=4453/0.0023307945",
		"step 0 tolerance 2: L0 bound=9.999999999999999e-06 data=64959b7ba1d15f0a have=- io=4941/0.003470143333 modeled=4941 deg=0/0 hier=5779/0.0034633945",
		"step 1 tolerance 0: L3 bound=0.8637289642367035 data=9835ef01d2dc79c4 have=- io=263/2.043833333e-06 modeled=263 deg=- hier=1167/2.1945e-06",
		"step 1 tolerance 1: L1 bound=0.17499476503954947 data=c58e6fe109207ef2 have=- io=2764/0.002252143833 modeled=2764 deg=- hier=4453/0.0023307945",
		"step 1 tolerance 2: L0 bound=9.999999999999999e-06 data=d9557af3890b8a31 have=- io=4939/0.003469643833 modeled=4939 deg=0/0 hier=5779/0.0034633945",
		"step 2 tolerance 0: L3 bound=0.8637289642367035 data=3f8ca96bf38bcd8b have=- io=261/2.0435e-06 modeled=261 deg=- hier=1167/2.1945e-06",
		"step 2 tolerance 1: L1 bound=0.17499476503954947 data=01d60fefed6ea66e have=- io=2759/0.0022518435 modeled=2759 deg=- hier=4453/0.0023307945",
		"step 2 tolerance 2: L0 bound=9.999999999999999e-06 data=67fd30ba0aa9c9cb have=- io=4945/0.0034704435 modeled=4945 deg=0/0 hier=5779/0.0034633945",
	},
	"series/delta/warm": {
		"step 0 level 0: L0 bound=9.999999999999999e-06 data=64959b7ba1d15f0a have=- io=4941/0.003470143333 modeled=4941 deg=- hier=5779/0.0034633945",
		"step 0 level 1: L1 bound=0.17499476503954947 data=0a70f5a8e8434cf9 have=- io=2770/0.002253043333 modeled=2770 deg=- hier=5779/0.0034633945",
		"step 0 level 2: L2 bound=0.4981023791443594 data=dc596d457a148361 have=- io=1318/0.001107843333 modeled=1318 deg=- hier=5779/0.0034633945",
		"step 0 level 3: L3 bound=0.8637289642367035 data=503b3b4943d250ed have=- io=260/2.043333333e-06 modeled=260 deg=- hier=5779/0.0034633945",
		"step 1 level 0: L0 bound=9.999999999999999e-06 data=d9557af3890b8a31 have=- io=4939/0.003469643833 modeled=4939 deg=- hier=5779/0.0034633945",
		"step 1 level 1: L1 bound=0.17499476503954947 data=c58e6fe109207ef2 have=- io=2764/0.002252143833 modeled=2764 deg=- hier=5779/0.0034633945",
		"step 1 level 2: L2 bound=0.4981023791443594 data=d7f26d4ac2d37e98 have=- io=1319/0.001107643833 modeled=1319 deg=- hier=5779/0.0034633945",
		"step 1 level 3: L3 bound=0.8637289642367035 data=9835ef01d2dc79c4 have=- io=263/2.043833333e-06 modeled=263 deg=- hier=5779/0.0034633945",
		"step 2 level 0: L0 bound=9.999999999999999e-06 data=67fd30ba0aa9c9cb have=- io=4945/0.0034704435 modeled=4945 deg=- hier=5779/0.0034633945",
		"step 2 level 1: L1 bound=0.17499476503954947 data=01d60fefed6ea66e have=- io=2759/0.0022518435 modeled=2759 deg=- hier=5779/0.0034633945",
		"step 2 level 2: L2 bound=0.4981023791443594 data=b03441a16ca08c60 have=- io=1316/0.0011075435 modeled=1316 deg=- hier=5779/0.0034633945",
		"step 2 level 3: L3 bound=0.8637289642367035 data=3f8ca96bf38bcd8b have=- io=261/2.0435e-06 modeled=261 deg=- hier=5779/0.0034633945",
		"step 0 tolerance 0: L3 bound=0.8637289642367035 data=503b3b4943d250ed have=- io=260/2.043333333e-06 modeled=260 deg=- hier=5779/0.0034633945",
		"step 0 tolerance 1: L1 bound=0.17499476503954947 data=0a70f5a8e8434cf9 have=- io=2770/0.002253043333 modeled=2770 deg=- hier=5779/0.0034633945",
		"step 0 tolerance 2: L0 bound=9.999999999999999e-06 data=64959b7ba1d15f0a have=- io=4941/0.003470143333 modeled=4941 deg=0/0 hier=5779/0.0034633945",
		"step 1 tolerance 0: L3 bound=0.8637289642367035 data=9835ef01d2dc79c4 have=- io=263/2.043833333e-06 modeled=263 deg=- hier=5779/0.0034633945",
		"step 1 tolerance 1: L1 bound=0.17499476503954947 data=c58e6fe109207ef2 have=- io=2764/0.002252143833 modeled=2764 deg=- hier=5779/0.0034633945",
		"step 1 tolerance 2: L0 bound=9.999999999999999e-06 data=d9557af3890b8a31 have=- io=4939/0.003469643833 modeled=4939 deg=0/0 hier=5779/0.0034633945",
		"step 2 tolerance 0: L3 bound=0.8637289642367035 data=3f8ca96bf38bcd8b have=- io=261/2.0435e-06 modeled=261 deg=- hier=5779/0.0034633945",
		"step 2 tolerance 1: L1 bound=0.17499476503954947 data=01d60fefed6ea66e have=- io=2759/0.0022518435 modeled=2759 deg=- hier=5779/0.0034633945",
		"step 2 tolerance 2: L0 bound=9.999999999999999e-06 data=67fd30ba0aa9c9cb have=- io=4945/0.0034704435 modeled=4945 deg=0/0 hier=5779/0.0034633945",
	},
}

func TestReadPathsGolden(t *testing.T) {
	for _, arc := range readPathArchives(t) {
		for _, warm := range []bool{false, true} {
			name := arc.name + "/cold"
			if warm {
				name = arc.name + "/warm"
			}
			serial := arc.reads(t, warm, 1)
			if diff := firstLineDiff(arc.reads(t, warm, 4), serial); diff != "" {
				t.Errorf("%s: workers 4 differ from workers 1: %s", name, diff)
			}
			if diff := firstLineDiff(serial, readPathsGolden[name]); diff != "" {
				var all strings.Builder
				for _, l := range serial {
					fmt.Fprintf(&all, "\t\t%q,\n", l)
				}
				t.Errorf("%s: read paths changed: %s\ngot:\n%s", name, diff, all.String())
			}
		}
	}
}

// readPathArchive is one stored archive and the read sequence run over it.
type readPathArchive struct {
	name  string
	reads func(t *testing.T, warm bool, workers int) []string
}

func readPathArchives(t *testing.T) []readPathArchive {
	t.Helper()
	ctx := context.Background()
	var arcs []readPathArchive
	for _, mode := range []Mode{ModeDelta, ModeDirect} {
		aio := newIO()
		if _, err := Write(ctx, aio, testDataset("dpot", 24), Options{Levels: 4, Chunks: 4, Mode: mode, RelTolerance: 1e-6}); err != nil {
			t.Fatal(err)
		}
		mode := mode
		arcs = append(arcs, readPathArchive{"write/" + mode.String(), func(t *testing.T, warm bool, workers int) []string {
			return singleReadPaths(t, aio, mode, warm, workers)
		}})
	}
	m := mesh.Rect(20, 20, 1, 1)
	aio := newIO()
	sw, err := NewSeriesWriter(ctx, aio, "dpot", m, 2.5, Options{Levels: 4, Chunks: 4, RelTolerance: 1e-6})
	if err != nil {
		t.Fatal(err)
	}
	for s := 0; s < 3; s++ {
		if _, err := sw.WriteStep(ctx, seriesField(m, float64(s))); err != nil {
			t.Fatal(err)
		}
	}
	arcs = append(arcs, readPathArchive{"series/delta", func(t *testing.T, warm bool, workers int) []string {
		return seriesReadPaths(t, aio, warm, workers)
	}})
	return arcs
}

// readTolerances are the error targets each archive is read to: one the
// base already meets, the level-1 bound exactly, and one tighter than full
// accuracy reaches.
func readTolerances(bounds []float64) []float64 {
	return []float64{2 * bounds[len(bounds)-1], bounds[1], bounds[0] / 1e3}
}

func singleReadPaths(t *testing.T, aio *adios.IO, mode Mode, warm bool, workers int) []string {
	t.Helper()
	ctx := context.Background()
	var shared *Reader
	open := func() *Reader {
		if shared != nil {
			return shared
		}
		rd, err := OpenReader(ctx, aio, "dpot")
		if err != nil {
			t.Fatal(err)
		}
		rd.SetWorkers(workers)
		if warm {
			if _, err := rd.Retrieve(ctx, 0); err != nil {
				t.Fatal(err)
			}
			shared = rd
		}
		return rd
	}
	var lines []string
	levels := open().Levels()
	bounds := make([]float64, levels)
	for l := 0; l < levels; l++ {
		v, err := open().Retrieve(ctx, l)
		if err != nil {
			t.Fatalf("retrieve %d: %v", l, err)
		}
		bounds[l] = v.ErrorBound
		lines = append(lines, readPathLine(fmt.Sprintf("retrieve %d", l), v, "", ""))
	}
	for i, eps := range readTolerances(bounds) {
		v, err := open().RetrieveToTolerance(ctx, eps)
		if err != nil {
			t.Fatalf("tolerance %g: %v", eps, err)
		}
		lines = append(lines, readPathLine(fmt.Sprintf("tolerance %d", i), v, "", ""))
	}
	if mode == ModeDelta {
		for _, l := range []int{0, 1} {
			rv, err := open().RetrieveRegion(ctx, l, 0.2, 0.25, 0.6, 0.7)
			if err != nil {
				t.Fatalf("region %d: %v", l, err)
			}
			v := &View{Level: rv.Level, Data: rv.Data, Timings: rv.Timings, ErrorBound: rv.ErrorBound, Degradation: rv.Degradation, Cost: rv.Cost}
			lines = append(lines, readPathLine(fmt.Sprintf("region %d", l), v, haveDigest(rv.Have), ""))
		}
	}
	for i, eps := range readTolerances(bounds)[1:] {
		ch, err := open().Subscribe(ctx, eps)
		if err != nil {
			t.Fatal(err)
		}
		j := 0
		for v := range ch {
			lines = append(lines, readPathLine(fmt.Sprintf("subscribe %d view %d", i, j), v, "", ""))
			j++
		}
	}
	return lines
}

func seriesReadPaths(t *testing.T, aio *adios.IO, warm bool, workers int) []string {
	t.Helper()
	ctx := context.Background()
	var shared *SeriesReader
	open := func() *SeriesReader {
		if shared != nil {
			return shared
		}
		sr, err := OpenSeriesReader(ctx, aio, "dpot")
		if err != nil {
			t.Fatal(err)
		}
		sr.SetWorkers(workers)
		if warm {
			if _, err := sr.RetrieveStep(ctx, 0, 0); err != nil {
				t.Fatal(err)
			}
			shared = sr
		}
		return sr
	}
	hier := func(sr *SeriesReader) string {
		c := sr.HierarchyCost()
		return fmt.Sprintf("%d/%s", c.Bytes, strconv.FormatFloat(c.Seconds, 'g', 10, 64))
	}
	var lines []string
	levels := open().Levels()
	bounds := make([]float64, levels)
	for s := 0; s < 3; s++ {
		for l := 0; l < levels; l++ {
			sr := open()
			v, err := sr.RetrieveStep(ctx, s, l)
			if err != nil {
				t.Fatalf("step %d level %d: %v", s, l, err)
			}
			if s == 0 {
				bounds[l] = v.ErrorBound
			}
			lines = append(lines, readPathLine(fmt.Sprintf("step %d level %d", s, l), v, "", hier(sr)))
		}
	}
	for s := 0; s < 3; s++ {
		for i, eps := range readTolerances(bounds) {
			sr := open()
			v, err := sr.RetrieveStepToTolerance(ctx, s, eps)
			if err != nil {
				t.Fatalf("step %d tolerance %g: %v", s, eps, err)
			}
			lines = append(lines, readPathLine(fmt.Sprintf("step %d tolerance %d", s, i), v, "", hier(sr)))
		}
	}
	return lines
}

func readPathLine(label string, v *View, have, hier string) string {
	modeled := int64(-1)
	if v.Cost != nil {
		modeled = v.Cost.ModeledBytes
	}
	if have == "" {
		have = "-"
	}
	if hier == "" {
		hier = "-"
	}
	deg := "-"
	if d := v.Degradation; d != nil {
		deg = fmt.Sprintf("%d/%d", d.RequestedLevel, d.AchievedLevel)
	}
	h := sha256.New()
	var b [8]byte
	for _, x := range v.Data {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(x))
		h.Write(b[:])
	}
	return fmt.Sprintf("%s: L%d bound=%s data=%s have=%s io=%d/%s modeled=%d deg=%s hier=%s",
		label, v.Level, strconv.FormatFloat(v.ErrorBound, 'g', -1, 64), hex.EncodeToString(h.Sum(nil))[:16],
		have, v.Timings.IOBytes, strconv.FormatFloat(v.Timings.IOSeconds, 'g', 10, 64), modeled, deg, hier)
}

func haveDigest(have []bool) string {
	b := make([]byte, len(have))
	for i, ok := range have {
		if ok {
			b[i] = 1
		}
	}
	s := sha256.Sum256(b)
	return hex.EncodeToString(s[:8])
}

// firstLineDiff describes the first line where got and want differ, or
// returns "" when they are equal.
func firstLineDiff(got, want []string) string {
	for i := 0; i < len(got) || i < len(want); i++ {
		switch {
		case i >= len(got):
			return fmt.Sprintf("line %d missing, want %q", i, want[i])
		case i >= len(want):
			return fmt.Sprintf("extra line %d %q", i, got[i])
		case got[i] != want[i]:
			return fmt.Sprintf("line %d\n got %q\nwant %q", i, got[i], want[i])
		}
	}
	return ""
}
