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
		"retrieve 0: L0 bound=8.884036627336806e-06 data=4721255bfea720e0 have=- io=11766/0.004027652 modeled=11766 deg=- hier=-",
		"retrieve 1: L1 bound=0.20889129422426506 data=0a2ef82c1e549aba have=- io=7521/0.002603152 modeled=7521 deg=- hier=-",
		"retrieve 2: L2 bound=0.4808484093331313 data=545f477ee8d62991 have=- io=4203/0.001271352 modeled=4203 deg=- hier=-",
		"retrieve 3: L3 bound=0.8690061426643385 data=ebd92d204c46471b have=- io=1512/2.252e-06 modeled=1512 deg=- hier=-",
		"tolerance 0: L3 bound=0.8690061426643385 data=ebd92d204c46471b have=- io=1512/2.252e-06 modeled=1512 deg=- hier=-",
		"tolerance 1: L1 bound=0.20889129422426506 data=0a2ef82c1e549aba have=- io=7521/0.002603152 modeled=7521 deg=- hier=-",
		"tolerance 2: L0 bound=8.884036627336806e-06 data=4721255bfea720e0 have=- io=11766/0.004027652 modeled=11766 deg=0/0 hier=-",
		"region 0: L0 bound=8.884036627336806e-06 data=cca7549e5f706482 have=196350585cd65fdb io=9296/0.003780652 modeled=9296 deg=- hier=-",
		"region 1: L1 bound=0.20889129422426506 data=090c15a30710d070 have=c5a974f30d698869 io=6354/0.002486452 modeled=6354 deg=- hier=-",
		"subscribe 0 view 0: L3 bound=0.8690061426643385 data=ebd92d204c46471b have=- io=1512/2.252e-06 modeled=-1 deg=- hier=-",
		"subscribe 0 view 1: L2 bound=0.4808484093331313 data=545f477ee8d62991 have=- io=4203/0.001271352 modeled=-1 deg=- hier=-",
		"subscribe 0 view 2: L1 bound=0.20889129422426506 data=0a2ef82c1e549aba have=- io=7521/0.002603152 modeled=7521 deg=- hier=-",
		"subscribe 1 view 0: L3 bound=0.8690061426643385 data=ebd92d204c46471b have=- io=1512/2.252e-06 modeled=-1 deg=- hier=-",
		"subscribe 1 view 1: L2 bound=0.4808484093331313 data=545f477ee8d62991 have=- io=4203/0.001271352 modeled=-1 deg=- hier=-",
		"subscribe 1 view 2: L1 bound=0.20889129422426506 data=0a2ef82c1e549aba have=- io=7521/0.002603152 modeled=-1 deg=- hier=-",
		"subscribe 1 view 3: L0 bound=8.884036627336806e-06 data=4721255bfea720e0 have=- io=11766/0.004027652 modeled=11766 deg=0/0 hier=-",
	},
	"write/delta/warm": {
		"retrieve 0: L0 bound=8.884036627336806e-06 data=4721255bfea720e0 have=- io=6764/0.003641162167 modeled=6764 deg=- hier=-",
		"retrieve 1: L1 bound=0.20889129422426506 data=0a2ef82c1e549aba have=- io=3760/0.002340762167 modeled=3760 deg=- hier=-",
		"retrieve 2: L2 bound=0.4808484093331313 data=545f477ee8d62991 have=- io=1826/0.001147362167 modeled=1826 deg=- hier=-",
		"retrieve 3: L3 bound=0.8690061426643385 data=ebd92d204c46471b have=- io=373/2.062166667e-06 modeled=373 deg=- hier=-",
		"tolerance 0: L3 bound=0.8690061426643385 data=ebd92d204c46471b have=- io=373/2.062166667e-06 modeled=373 deg=- hier=-",
		"tolerance 1: L1 bound=0.20889129422426506 data=0a2ef82c1e549aba have=- io=3760/0.002340762167 modeled=3760 deg=- hier=-",
		"tolerance 2: L0 bound=8.884036627336806e-06 data=4721255bfea720e0 have=- io=6764/0.003641162167 modeled=6764 deg=0/0 hier=-",
		"region 0: L0 bound=8.884036627336806e-06 data=cca7549e5f706482 have=196350585cd65fdb io=4294/0.003394162167 modeled=4294 deg=- hier=-",
		"region 1: L1 bound=0.20889129422426506 data=090c15a30710d070 have=c5a974f30d698869 io=2593/0.002224062167 modeled=2593 deg=- hier=-",
		"subscribe 0 view 0: L3 bound=0.8690061426643385 data=ebd92d204c46471b have=- io=373/2.062166667e-06 modeled=-1 deg=- hier=-",
		"subscribe 0 view 1: L2 bound=0.4808484093331313 data=545f477ee8d62991 have=- io=1826/0.001147362167 modeled=-1 deg=- hier=-",
		"subscribe 0 view 2: L1 bound=0.20889129422426506 data=0a2ef82c1e549aba have=- io=3760/0.002340762167 modeled=3760 deg=- hier=-",
		"subscribe 1 view 0: L3 bound=0.8690061426643385 data=ebd92d204c46471b have=- io=373/2.062166667e-06 modeled=-1 deg=- hier=-",
		"subscribe 1 view 1: L2 bound=0.4808484093331313 data=545f477ee8d62991 have=- io=1826/0.001147362167 modeled=-1 deg=- hier=-",
		"subscribe 1 view 2: L1 bound=0.20889129422426506 data=0a2ef82c1e549aba have=- io=3760/0.002340762167 modeled=-1 deg=- hier=-",
		"subscribe 1 view 3: L0 bound=8.884036627336806e-06 data=4721255bfea720e0 have=- io=6764/0.003641162167 modeled=6764 deg=0/0 hier=-",
	},
	"write/direct/cold": {
		"retrieve 0: L0 bound=2.2210091568342014e-06 data=cd684c97ea7f0451 have=- io=3316/0.0013316 modeled=3316 deg=- hier=-",
		"retrieve 1: L1 bound=0.20888685220595138 data=208d935836f1e713 have=- io=2427/0.0012427 modeled=2427 deg=- hier=-",
		"retrieve 2: L2 bound=0.4808461883239744 data=0d030e4d375a9aab have=- io=1793/0.0011793 modeled=1793 deg=- hier=-",
		"retrieve 3: L3 bound=0.8690061426643385 data=ebd92d204c46471b have=- io=1512/2.252e-06 modeled=1512 deg=- hier=-",
		"tolerance 0: L3 bound=0.8690061426643385 data=ebd92d204c46471b have=- io=1512/2.252e-06 modeled=1512 deg=- hier=-",
		"tolerance 1: L1 bound=0.20888685220595138 data=208d935836f1e713 have=- io=2427/0.0012427 modeled=2427 deg=- hier=-",
		"tolerance 2: L0 bound=2.2210091568342014e-06 data=cd684c97ea7f0451 have=- io=3316/0.0013316 modeled=3316 deg=0/0 hier=-",
		"subscribe 0 view 0: L3 bound=0.8690061426643385 data=ebd92d204c46471b have=- io=1512/2.252e-06 modeled=-1 deg=- hier=-",
		"subscribe 0 view 1: L2 bound=0.4808461883239744 data=0d030e4d375a9aab have=- io=3305/0.001181552 modeled=-1 deg=- hier=-",
		"subscribe 0 view 2: L1 bound=0.20888685220595138 data=208d935836f1e713 have=- io=5732/0.002424252 modeled=5732 deg=- hier=-",
		"subscribe 1 view 0: L3 bound=0.8690061426643385 data=ebd92d204c46471b have=- io=1512/2.252e-06 modeled=-1 deg=- hier=-",
		"subscribe 1 view 1: L2 bound=0.4808461883239744 data=0d030e4d375a9aab have=- io=3305/0.001181552 modeled=-1 deg=- hier=-",
		"subscribe 1 view 2: L1 bound=0.20888685220595138 data=208d935836f1e713 have=- io=5732/0.002424252 modeled=-1 deg=- hier=-",
		"subscribe 1 view 3: L0 bound=2.2210091568342014e-06 data=cd684c97ea7f0451 have=- io=9048/0.003755852 modeled=9048 deg=0/0 hier=-",
	},
	"write/direct/warm": {
		"retrieve 0: L0 bound=2.2210091568342014e-06 data=cd684c97ea7f0451 have=- io=2230/0.001223 modeled=2230 deg=- hier=-",
		"retrieve 1: L1 bound=0.20888685220595138 data=208d935836f1e713 have=- io=2427/0.0012427 modeled=2427 deg=- hier=-",
		"retrieve 2: L2 bound=0.4808461883239744 data=0d030e4d375a9aab have=- io=1793/0.0011793 modeled=1793 deg=- hier=-",
		"retrieve 3: L3 bound=0.8690061426643385 data=ebd92d204c46471b have=- io=1512/2.252e-06 modeled=1512 deg=- hier=-",
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
		"step 0 level 0: L0 bound=9.999999999999999e-06 data=c3ec5ac292679332 have=- io=4941/0.003470143333 modeled=4941 deg=- hier=5718/0.003457594",
		"step 0 level 1: L1 bound=0.17499476503954947 data=e3056ae05d295216 have=- io=2769/0.002252943333 modeled=2769 deg=- hier=4411/0.002326894",
		"step 0 level 2: L2 bound=0.4981023791443594 data=e6fdccf9547a13b7 have=- io=1317/0.001107743333 modeled=1317 deg=- hier=2723/0.001158094",
		"step 0 level 3: L3 bound=0.8261111925905927 data=b5a46852d44a74aa have=- io=260/2.043333333e-06 modeled=260 deg=- hier=1164/2.194e-06",
		"step 1 level 0: L0 bound=9.999999999999999e-06 data=257f64d58442f226 have=- io=4942/0.003469844 modeled=4942 deg=- hier=5718/0.003457594",
		"step 1 level 1: L1 bound=0.17499476503954947 data=1790a24f6794df3a have=- io=2765/0.002252144 modeled=2765 deg=- hier=4411/0.002326894",
		"step 1 level 2: L2 bound=0.4981023791443594 data=5d79f7778c07713b have=- io=1320/0.001107644 modeled=1320 deg=- hier=2723/0.001158094",
		"step 1 level 3: L3 bound=0.8261111925905927 data=9b9701554345c687 have=- io=264/2.044e-06 modeled=264 deg=- hier=1164/2.194e-06",
		"step 2 level 0: L0 bound=9.999999999999999e-06 data=8fb80f6e87f4c4a0 have=- io=4952/0.003471043667 modeled=4952 deg=- hier=5718/0.003457594",
		"step 2 level 1: L1 bound=0.17499476503954947 data=4e765aea67e3a4de have=- io=2765/0.002252343667 modeled=2765 deg=- hier=4411/0.002326894",
		"step 2 level 2: L2 bound=0.4981023791443594 data=e8253259e171bf74 have=- io=1320/0.001107843667 modeled=1320 deg=- hier=2723/0.001158094",
		"step 2 level 3: L3 bound=0.8261111925905927 data=3cfc22971d955fcf have=- io=262/2.043666667e-06 modeled=262 deg=- hier=1164/2.194e-06",
		"step 0 tolerance 0: L3 bound=0.8261111925905927 data=b5a46852d44a74aa have=- io=260/2.043333333e-06 modeled=260 deg=- hier=1164/2.194e-06",
		"step 0 tolerance 1: L1 bound=0.17499476503954947 data=e3056ae05d295216 have=- io=2769/0.002252943333 modeled=2769 deg=- hier=4411/0.002326894",
		"step 0 tolerance 2: L0 bound=9.999999999999999e-06 data=c3ec5ac292679332 have=- io=4941/0.003470143333 modeled=4941 deg=0/0 hier=5718/0.003457594",
		"step 1 tolerance 0: L3 bound=0.8261111925905927 data=9b9701554345c687 have=- io=264/2.044e-06 modeled=264 deg=- hier=1164/2.194e-06",
		"step 1 tolerance 1: L1 bound=0.17499476503954947 data=1790a24f6794df3a have=- io=2765/0.002252144 modeled=2765 deg=- hier=4411/0.002326894",
		"step 1 tolerance 2: L0 bound=9.999999999999999e-06 data=257f64d58442f226 have=- io=4942/0.003469844 modeled=4942 deg=0/0 hier=5718/0.003457594",
		"step 2 tolerance 0: L3 bound=0.8261111925905927 data=3cfc22971d955fcf have=- io=262/2.043666667e-06 modeled=262 deg=- hier=1164/2.194e-06",
		"step 2 tolerance 1: L1 bound=0.17499476503954947 data=4e765aea67e3a4de have=- io=2765/0.002252343667 modeled=2765 deg=- hier=4411/0.002326894",
		"step 2 tolerance 2: L0 bound=9.999999999999999e-06 data=8fb80f6e87f4c4a0 have=- io=4952/0.003471043667 modeled=4952 deg=0/0 hier=5718/0.003457594",
	},
	"series/delta/warm": {
		"step 0 level 0: L0 bound=9.999999999999999e-06 data=c3ec5ac292679332 have=- io=4941/0.003470143333 modeled=4941 deg=- hier=5718/0.003457594",
		"step 0 level 1: L1 bound=0.17499476503954947 data=e3056ae05d295216 have=- io=2769/0.002252943333 modeled=2769 deg=- hier=5718/0.003457594",
		"step 0 level 2: L2 bound=0.4981023791443594 data=e6fdccf9547a13b7 have=- io=1317/0.001107743333 modeled=1317 deg=- hier=5718/0.003457594",
		"step 0 level 3: L3 bound=0.8261111925905927 data=b5a46852d44a74aa have=- io=260/2.043333333e-06 modeled=260 deg=- hier=5718/0.003457594",
		"step 1 level 0: L0 bound=9.999999999999999e-06 data=257f64d58442f226 have=- io=4942/0.003469844 modeled=4942 deg=- hier=5718/0.003457594",
		"step 1 level 1: L1 bound=0.17499476503954947 data=1790a24f6794df3a have=- io=2765/0.002252144 modeled=2765 deg=- hier=5718/0.003457594",
		"step 1 level 2: L2 bound=0.4981023791443594 data=5d79f7778c07713b have=- io=1320/0.001107644 modeled=1320 deg=- hier=5718/0.003457594",
		"step 1 level 3: L3 bound=0.8261111925905927 data=9b9701554345c687 have=- io=264/2.044e-06 modeled=264 deg=- hier=5718/0.003457594",
		"step 2 level 0: L0 bound=9.999999999999999e-06 data=8fb80f6e87f4c4a0 have=- io=4952/0.003471043667 modeled=4952 deg=- hier=5718/0.003457594",
		"step 2 level 1: L1 bound=0.17499476503954947 data=4e765aea67e3a4de have=- io=2765/0.002252343667 modeled=2765 deg=- hier=5718/0.003457594",
		"step 2 level 2: L2 bound=0.4981023791443594 data=e8253259e171bf74 have=- io=1320/0.001107843667 modeled=1320 deg=- hier=5718/0.003457594",
		"step 2 level 3: L3 bound=0.8261111925905927 data=3cfc22971d955fcf have=- io=262/2.043666667e-06 modeled=262 deg=- hier=5718/0.003457594",
		"step 0 tolerance 0: L3 bound=0.8261111925905927 data=b5a46852d44a74aa have=- io=260/2.043333333e-06 modeled=260 deg=- hier=5718/0.003457594",
		"step 0 tolerance 1: L1 bound=0.17499476503954947 data=e3056ae05d295216 have=- io=2769/0.002252943333 modeled=2769 deg=- hier=5718/0.003457594",
		"step 0 tolerance 2: L0 bound=9.999999999999999e-06 data=c3ec5ac292679332 have=- io=4941/0.003470143333 modeled=4941 deg=0/0 hier=5718/0.003457594",
		"step 1 tolerance 0: L3 bound=0.8261111925905927 data=9b9701554345c687 have=- io=264/2.044e-06 modeled=264 deg=- hier=5718/0.003457594",
		"step 1 tolerance 1: L1 bound=0.17499476503954947 data=1790a24f6794df3a have=- io=2765/0.002252144 modeled=2765 deg=- hier=5718/0.003457594",
		"step 1 tolerance 2: L0 bound=9.999999999999999e-06 data=257f64d58442f226 have=- io=4942/0.003469844 modeled=4942 deg=0/0 hier=5718/0.003457594",
		"step 2 tolerance 0: L3 bound=0.8261111925905927 data=3cfc22971d955fcf have=- io=262/2.043666667e-06 modeled=262 deg=- hier=5718/0.003457594",
		"step 2 tolerance 1: L1 bound=0.17499476503954947 data=4e765aea67e3a4de have=- io=2765/0.002252343667 modeled=2765 deg=- hier=5718/0.003457594",
		"step 2 tolerance 2: L0 bound=9.999999999999999e-06 data=8fb80f6e87f4c4a0 have=- io=4952/0.003471043667 modeled=4952 deg=0/0 hier=5718/0.003457594",
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
