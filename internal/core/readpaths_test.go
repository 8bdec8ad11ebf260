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
		"retrieve 0: L0 bound=8.884036627336806e-06 data=61825e75cb107508 have=- io=14173/0.00425158 modeled=14173 deg=- hier=-",
		"retrieve 1: L1 bound=0.20889129422426506 data=da09a043b0464c10 have=- io=9928/0.00282708 modeled=9928 deg=- hier=-",
		"retrieve 2: L2 bound=0.4808484093331313 data=85216739aadc37b6 have=- io=5185/0.00135278 modeled=5185 deg=- hier=-",
		"retrieve 3: L3 bound=0.8690061426643385 data=7362047f40b58bab have=- io=1680/2.28e-06 modeled=1680 deg=- hier=-",
		"tolerance 0: L3 bound=0.8690061426643385 data=7362047f40b58bab have=- io=1680/2.28e-06 modeled=1680 deg=- hier=-",
		"tolerance 1: L1 bound=0.20889129422426506 data=da09a043b0464c10 have=- io=9928/0.00282708 modeled=9928 deg=- hier=-",
		"tolerance 2: L0 bound=8.884036627336806e-06 data=61825e75cb107508 have=- io=14173/0.00425158 modeled=14173 deg=0/0 hier=-",
		"region 0: L0 bound=8.884036627336806e-06 data=27e97764ba646a1e have=196350585cd65fdb io=11634/0.00399768 modeled=11634 deg=- hier=-",
		"region 1: L1 bound=0.20889129422426506 data=e1b9be73ef4f8364 have=b992f07ba98a8208 io=8671/0.00270138 modeled=8671 deg=- hier=-",
		"subscribe 0 view 0: L3 bound=0.8690061426643385 data=7362047f40b58bab have=- io=1680/2.28e-06 modeled=-1 deg=- hier=-",
		"subscribe 0 view 1: L2 bound=0.4808484093331313 data=85216739aadc37b6 have=- io=5185/0.00135278 modeled=-1 deg=- hier=-",
		"subscribe 0 view 2: L1 bound=0.20889129422426506 data=da09a043b0464c10 have=- io=9928/0.00282708 modeled=9928 deg=- hier=-",
		"subscribe 1 view 0: L3 bound=0.8690061426643385 data=7362047f40b58bab have=- io=1680/2.28e-06 modeled=-1 deg=- hier=-",
		"subscribe 1 view 1: L2 bound=0.4808484093331313 data=85216739aadc37b6 have=- io=5185/0.00135278 modeled=-1 deg=- hier=-",
		"subscribe 1 view 2: L1 bound=0.20889129422426506 data=da09a043b0464c10 have=- io=9928/0.00282708 modeled=-1 deg=- hier=-",
		"subscribe 1 view 3: L0 bound=8.884036627336806e-06 data=61825e75cb107508 have=- io=14173/0.00425158 modeled=14173 deg=0/0 hier=-",
	},
	"write/delta/warm": {
		"retrieve 0: L0 bound=8.884036627336806e-06 data=61825e75cb107508 have=- io=6935/0.0036580625 modeled=6935 deg=- hier=-",
		"retrieve 1: L1 bound=0.20889129422426506 data=da09a043b0464c10 have=- io=3931/0.0023576625 modeled=3931 deg=- hier=-",
		"retrieve 2: L2 bound=0.4808484093331313 data=85216739aadc37b6 have=- io=1888/0.0011533625 modeled=1888 deg=- hier=-",
		"retrieve 3: L3 bound=0.8690061426643385 data=7362047f40b58bab have=- io=375/2.0625e-06 modeled=375 deg=- hier=-",
		"tolerance 0: L3 bound=0.8690061426643385 data=7362047f40b58bab have=- io=375/2.0625e-06 modeled=375 deg=- hier=-",
		"tolerance 1: L1 bound=0.20889129422426506 data=da09a043b0464c10 have=- io=3931/0.0023576625 modeled=3931 deg=- hier=-",
		"tolerance 2: L0 bound=8.884036627336806e-06 data=61825e75cb107508 have=- io=6935/0.0036580625 modeled=6935 deg=0/0 hier=-",
		"region 0: L0 bound=8.884036627336806e-06 data=27e97764ba646a1e have=196350585cd65fdb io=4396/0.0034041625 modeled=4396 deg=- hier=-",
		"region 1: L1 bound=0.20889129422426506 data=e1b9be73ef4f8364 have=b992f07ba98a8208 io=2674/0.0022319625 modeled=2674 deg=- hier=-",
		"subscribe 0 view 0: L3 bound=0.8690061426643385 data=7362047f40b58bab have=- io=375/2.0625e-06 modeled=-1 deg=- hier=-",
		"subscribe 0 view 1: L2 bound=0.4808484093331313 data=85216739aadc37b6 have=- io=1888/0.0011533625 modeled=-1 deg=- hier=-",
		"subscribe 0 view 2: L1 bound=0.20889129422426506 data=da09a043b0464c10 have=- io=3931/0.0023576625 modeled=3931 deg=- hier=-",
		"subscribe 1 view 0: L3 bound=0.8690061426643385 data=7362047f40b58bab have=- io=375/2.0625e-06 modeled=-1 deg=- hier=-",
		"subscribe 1 view 1: L2 bound=0.4808484093331313 data=85216739aadc37b6 have=- io=1888/0.0011533625 modeled=-1 deg=- hier=-",
		"subscribe 1 view 2: L1 bound=0.20889129422426506 data=da09a043b0464c10 have=- io=3931/0.0023576625 modeled=-1 deg=- hier=-",
		"subscribe 1 view 3: L0 bound=8.884036627336806e-06 data=61825e75cb107508 have=- io=6935/0.0036580625 modeled=6935 deg=0/0 hier=-",
	},
	"write/direct/cold": {
		"retrieve 0: L0 bound=2.2210091568342014e-06 data=cd684c97ea7f0451 have=- io=3316/0.0013316 modeled=3316 deg=- hier=-",
		"retrieve 1: L1 bound=0.20888685220595138 data=bf1ef72875c5a2ff have=- io=3723/0.0013723 modeled=3723 deg=- hier=-",
		"retrieve 2: L2 bound=0.4808461883239744 data=7f7fcfb18e3db71e have=- io=2471/0.0012471 modeled=2471 deg=- hier=-",
		"retrieve 3: L3 bound=0.8690061426643385 data=7362047f40b58bab have=- io=1680/2.28e-06 modeled=1680 deg=- hier=-",
		"tolerance 0: L3 bound=0.8690061426643385 data=7362047f40b58bab have=- io=1680/2.28e-06 modeled=1680 deg=- hier=-",
		"tolerance 1: L1 bound=0.20888685220595138 data=bf1ef72875c5a2ff have=- io=3723/0.0013723 modeled=3723 deg=- hier=-",
		"tolerance 2: L0 bound=2.2210091568342014e-06 data=cd684c97ea7f0451 have=- io=3316/0.0013316 modeled=3316 deg=0/0 hier=-",
		"subscribe 0 view 0: L3 bound=0.8690061426643385 data=7362047f40b58bab have=- io=1680/2.28e-06 modeled=-1 deg=- hier=-",
		"subscribe 0 view 1: L2 bound=0.4808461883239744 data=7f7fcfb18e3db71e have=- io=4151/0.00124938 modeled=-1 deg=- hier=-",
		"subscribe 0 view 2: L1 bound=0.20888685220595138 data=bf1ef72875c5a2ff have=- io=7874/0.00262168 modeled=7874 deg=- hier=-",
		"subscribe 1 view 0: L3 bound=0.8690061426643385 data=7362047f40b58bab have=- io=1680/2.28e-06 modeled=-1 deg=- hier=-",
		"subscribe 1 view 1: L2 bound=0.4808461883239744 data=7f7fcfb18e3db71e have=- io=4151/0.00124938 modeled=-1 deg=- hier=-",
		"subscribe 1 view 2: L1 bound=0.20888685220595138 data=bf1ef72875c5a2ff have=- io=7874/0.00262168 modeled=-1 deg=- hier=-",
		"subscribe 1 view 3: L0 bound=2.2210091568342014e-06 data=cd684c97ea7f0451 have=- io=11190/0.00395328 modeled=11190 deg=0/0 hier=-",
	},
	"write/direct/warm": {
		"retrieve 0: L0 bound=2.2210091568342014e-06 data=cd684c97ea7f0451 have=- io=2230/0.001223 modeled=2230 deg=- hier=-",
		"retrieve 1: L1 bound=0.20888685220595138 data=bf1ef72875c5a2ff have=- io=3723/0.0013723 modeled=3723 deg=- hier=-",
		"retrieve 2: L2 bound=0.4808461883239744 data=7f7fcfb18e3db71e have=- io=2471/0.0012471 modeled=2471 deg=- hier=-",
		"retrieve 3: L3 bound=0.8690061426643385 data=7362047f40b58bab have=- io=1680/2.28e-06 modeled=1680 deg=- hier=-",
		"tolerance 0: L3 bound=0.8690061426643385 data=7362047f40b58bab have=- io=375/2.0625e-06 modeled=375 deg=- hier=-",
		"tolerance 1: L1 bound=0.20888685220595138 data=bf1ef72875c5a2ff have=- io=1194/0.0011194 modeled=1194 deg=- hier=-",
		"tolerance 2: L0 bound=2.2210091568342014e-06 data=cd684c97ea7f0451 have=- io=2230/0.001223 modeled=2230 deg=0/0 hier=-",
		"subscribe 0 view 0: L3 bound=0.8690061426643385 data=7362047f40b58bab have=- io=375/2.0625e-06 modeled=-1 deg=- hier=-",
		"subscribe 0 view 1: L2 bound=0.4808461883239744 data=7f7fcfb18e3db71e have=- io=998/0.0010643625 modeled=-1 deg=- hier=-",
		"subscribe 0 view 2: L1 bound=0.20888685220595138 data=bf1ef72875c5a2ff have=- io=2192/0.0021837625 modeled=2192 deg=- hier=-",
		"subscribe 1 view 0: L3 bound=0.8690061426643385 data=7362047f40b58bab have=- io=375/2.0625e-06 modeled=-1 deg=- hier=-",
		"subscribe 1 view 1: L2 bound=0.4808461883239744 data=7f7fcfb18e3db71e have=- io=998/0.0010643625 modeled=-1 deg=- hier=-",
		"subscribe 1 view 2: L1 bound=0.20888685220595138 data=bf1ef72875c5a2ff have=- io=2192/0.0021837625 modeled=-1 deg=- hier=-",
		"subscribe 1 view 3: L0 bound=2.2210091568342014e-06 data=cd684c97ea7f0451 have=- io=4422/0.0034067625 modeled=4422 deg=0/0 hier=-",
	},
	"series/delta/cold": {
		"step 0 level 0: L0 bound=9.999999999999999e-06 data=e6bf4a1133c71190 have=- io=5033/0.0034792435 modeled=5033 deg=- hier=6805/0.003558407167",
		"step 0 level 1: L1 bound=0.17499476503954947 data=be17b99eda7e08e3 have=- io=2861/0.0022620435 modeled=2861 deg=- hier=5498/0.002427707167",
		"step 0 level 2: L2 bound=0.4981023791443594 data=d64a9d8a3aad7f2b have=- io=1349/0.0011108435 modeled=1349 deg=- hier=3014/0.001179307167",
		"step 0 level 3: L3 bound=0.8261111925905927 data=f1d17d1b32cb7f4c have=- io=261/2.0435e-06 modeled=261 deg=- hier=1243/2.207166667e-06",
		"step 1 level 0: L0 bound=9.999999999999999e-06 data=dfae4be056a387dd have=- io=5039/0.003479544 modeled=5039 deg=- hier=6805/0.003558407167",
		"step 1 level 1: L1 bound=0.17499476503954947 data=5c0f570d8d931c8f have=- io=2862/0.002261844 modeled=2862 deg=- hier=5498/0.002427707167",
		"step 1 level 2: L2 bound=0.4981023791443594 data=9362bf2a5546ae41 have=- io=1358/0.001111444 modeled=1358 deg=- hier=3014/0.001179307167",
		"step 1 level 3: L3 bound=0.8261111925905927 data=78797bdb493ca14e have=- io=264/2.044e-06 modeled=264 deg=- hier=1243/2.207166667e-06",
		"step 2 level 0: L0 bound=9.999999999999999e-06 data=3930a8851a0c2ccb have=- io=5049/0.0034808435 modeled=5049 deg=- hier=6805/0.003558407167",
		"step 2 level 1: L1 bound=0.17499476503954947 data=09008aa67759be25 have=- io=2862/0.0022621435 modeled=2862 deg=- hier=5498/0.002427707167",
		"step 2 level 2: L2 bound=0.4981023791443594 data=85ccb6694b002269 have=- io=1360/0.0011119435 modeled=1360 deg=- hier=3014/0.001179307167",
		"step 2 level 3: L3 bound=0.8261111925905927 data=86ede5f241c5c427 have=- io=261/2.0435e-06 modeled=261 deg=- hier=1243/2.207166667e-06",
		"step 0 tolerance 0: L3 bound=0.8261111925905927 data=f1d17d1b32cb7f4c have=- io=261/2.0435e-06 modeled=261 deg=- hier=1243/2.207166667e-06",
		"step 0 tolerance 1: L1 bound=0.17499476503954947 data=be17b99eda7e08e3 have=- io=2861/0.0022620435 modeled=2861 deg=- hier=5498/0.002427707167",
		"step 0 tolerance 2: L0 bound=9.999999999999999e-06 data=e6bf4a1133c71190 have=- io=5033/0.0034792435 modeled=5033 deg=0/0 hier=6805/0.003558407167",
		"step 1 tolerance 0: L3 bound=0.8261111925905927 data=78797bdb493ca14e have=- io=264/2.044e-06 modeled=264 deg=- hier=1243/2.207166667e-06",
		"step 1 tolerance 1: L1 bound=0.17499476503954947 data=5c0f570d8d931c8f have=- io=2862/0.002261844 modeled=2862 deg=- hier=5498/0.002427707167",
		"step 1 tolerance 2: L0 bound=9.999999999999999e-06 data=dfae4be056a387dd have=- io=5039/0.003479544 modeled=5039 deg=0/0 hier=6805/0.003558407167",
		"step 2 tolerance 0: L3 bound=0.8261111925905927 data=86ede5f241c5c427 have=- io=261/2.0435e-06 modeled=261 deg=- hier=1243/2.207166667e-06",
		"step 2 tolerance 1: L1 bound=0.17499476503954947 data=09008aa67759be25 have=- io=2862/0.0022621435 modeled=2862 deg=- hier=5498/0.002427707167",
		"step 2 tolerance 2: L0 bound=9.999999999999999e-06 data=3930a8851a0c2ccb have=- io=5049/0.0034808435 modeled=5049 deg=0/0 hier=6805/0.003558407167",
	},
	"series/delta/warm": {
		"step 0 level 0: L0 bound=9.999999999999999e-06 data=e6bf4a1133c71190 have=- io=5033/0.0034792435 modeled=5033 deg=- hier=6805/0.003558407167",
		"step 0 level 1: L1 bound=0.17499476503954947 data=be17b99eda7e08e3 have=- io=2861/0.0022620435 modeled=2861 deg=- hier=6805/0.003558407167",
		"step 0 level 2: L2 bound=0.4981023791443594 data=d64a9d8a3aad7f2b have=- io=1349/0.0011108435 modeled=1349 deg=- hier=6805/0.003558407167",
		"step 0 level 3: L3 bound=0.8261111925905927 data=f1d17d1b32cb7f4c have=- io=261/2.0435e-06 modeled=261 deg=- hier=6805/0.003558407167",
		"step 1 level 0: L0 bound=9.999999999999999e-06 data=dfae4be056a387dd have=- io=5039/0.003479544 modeled=5039 deg=- hier=6805/0.003558407167",
		"step 1 level 1: L1 bound=0.17499476503954947 data=5c0f570d8d931c8f have=- io=2862/0.002261844 modeled=2862 deg=- hier=6805/0.003558407167",
		"step 1 level 2: L2 bound=0.4981023791443594 data=9362bf2a5546ae41 have=- io=1358/0.001111444 modeled=1358 deg=- hier=6805/0.003558407167",
		"step 1 level 3: L3 bound=0.8261111925905927 data=78797bdb493ca14e have=- io=264/2.044e-06 modeled=264 deg=- hier=6805/0.003558407167",
		"step 2 level 0: L0 bound=9.999999999999999e-06 data=3930a8851a0c2ccb have=- io=5049/0.0034808435 modeled=5049 deg=- hier=6805/0.003558407167",
		"step 2 level 1: L1 bound=0.17499476503954947 data=09008aa67759be25 have=- io=2862/0.0022621435 modeled=2862 deg=- hier=6805/0.003558407167",
		"step 2 level 2: L2 bound=0.4981023791443594 data=85ccb6694b002269 have=- io=1360/0.0011119435 modeled=1360 deg=- hier=6805/0.003558407167",
		"step 2 level 3: L3 bound=0.8261111925905927 data=86ede5f241c5c427 have=- io=261/2.0435e-06 modeled=261 deg=- hier=6805/0.003558407167",
		"step 0 tolerance 0: L3 bound=0.8261111925905927 data=f1d17d1b32cb7f4c have=- io=261/2.0435e-06 modeled=261 deg=- hier=6805/0.003558407167",
		"step 0 tolerance 1: L1 bound=0.17499476503954947 data=be17b99eda7e08e3 have=- io=2861/0.0022620435 modeled=2861 deg=- hier=6805/0.003558407167",
		"step 0 tolerance 2: L0 bound=9.999999999999999e-06 data=e6bf4a1133c71190 have=- io=5033/0.0034792435 modeled=5033 deg=0/0 hier=6805/0.003558407167",
		"step 1 tolerance 0: L3 bound=0.8261111925905927 data=78797bdb493ca14e have=- io=264/2.044e-06 modeled=264 deg=- hier=6805/0.003558407167",
		"step 1 tolerance 1: L1 bound=0.17499476503954947 data=5c0f570d8d931c8f have=- io=2862/0.002261844 modeled=2862 deg=- hier=6805/0.003558407167",
		"step 1 tolerance 2: L0 bound=9.999999999999999e-06 data=dfae4be056a387dd have=- io=5039/0.003479544 modeled=5039 deg=0/0 hier=6805/0.003558407167",
		"step 2 tolerance 0: L3 bound=0.8261111925905927 data=86ede5f241c5c427 have=- io=261/2.0435e-06 modeled=261 deg=- hier=6805/0.003558407167",
		"step 2 tolerance 1: L1 bound=0.17499476503954947 data=09008aa67759be25 have=- io=2862/0.0022621435 modeled=2862 deg=- hier=6805/0.003558407167",
		"step 2 tolerance 2: L0 bound=9.999999999999999e-06 data=3930a8851a0c2ccb have=- io=5049/0.0034808435 modeled=5049 deg=0/0 hier=6805/0.003558407167",
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
