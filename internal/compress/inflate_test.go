package compress

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"math/bits"
	"math/rand"
	"sync"
	"testing"
)

// The stdlib decoder is the oracle: InflateAppend and InflateInto must
// accept exactly the streams compress/flate accepts and produce its bytes.

// stdlibInflate is the reference for InflateAppend: a fresh compress/flate
// reader, read to the end.
func stdlibInflate(src []byte) ([]byte, error) {
	return io.ReadAll(flate.NewReader(bytes.NewReader(src)))
}

// stdlibInflater is a compress/flate reader reset onto a bytes.Reader,
// pooled the way the package decoded before it had its own decoder.
type stdlibInflater struct {
	br bytes.Reader
	fr io.ReadCloser
}

var stdlibInflaterPool = sync.Pool{
	New: func() any {
		inf := &stdlibInflater{}
		inf.fr = flate.NewReader(&inf.br)
		return inf
	},
}

// stdlibInflateInto is the reference for InflateInto: exactly len(dst)
// bytes, then the end of the stream, then the end of src.
func stdlibInflateInto(dst, src []byte) error {
	inf := stdlibInflaterPool.Get().(*stdlibInflater)
	defer stdlibInflaterPool.Put(inf)
	inf.br.Reset(src)
	if err := inf.fr.(flate.Resetter).Reset(&inf.br, nil); err != nil {
		return err
	}
	if _, err := io.ReadFull(inf.fr, dst); err != nil {
		return err
	}
	var extra [1]byte
	if n, err := inf.fr.Read(extra[:]); n != 0 || err != io.EOF {
		return fmt.Errorf("stream runs long or fails: %v", err)
	}
	if inf.br.Len() != 0 {
		return fmt.Errorf("%d bytes after the end of the stream", inf.br.Len())
	}
	return nil
}

// checkInflateVsStdlib fails t unless both decoders agree on z: the same
// verdict, the same bytes, for InflateAppend with and without a prefix and
// for InflateInto on the exact length, one byte short, one byte long, and
// with a byte appended to z.
func checkInflateVsStdlib(t testing.TB, z []byte) {
	t.Helper()
	want, werr := stdlibInflate(z)
	got, gerr := InflateAppend(nil, z)
	if (werr == nil) != (gerr == nil) {
		t.Fatalf("InflateAppend error %v, stdlib %v", gerr, werr)
	}
	if werr != nil {
		return
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("InflateAppend: %d bytes differ from stdlib's %d", len(got), len(want))
	}
	// A prefix in dst is kept and is not history the stream may copy from.
	prefix := make([]byte, 3, 3+len(want)/2)
	copy(prefix, "pre")
	got, gerr = InflateAppend(prefix, z)
	if gerr != nil || string(got[:3]) != "pre" || !bytes.Equal(got[3:], want) {
		t.Fatalf("InflateAppend after a prefix: %v", gerr)
	}

	trailing := append(z[:len(z):len(z)], 0)
	for _, tc := range []struct {
		n int
		z []byte
	}{
		{len(want), z}, {len(want) - 1, z}, {len(want) + 1, z}, {len(want), trailing},
	} {
		if tc.n < 0 {
			continue
		}
		a, b := make([]byte, tc.n), make([]byte, tc.n)
		werr, gerr := stdlibInflateInto(a, tc.z), InflateInto(b, tc.z)
		if (werr == nil) != (gerr == nil) {
			t.Fatalf("InflateInto(%d of %d bytes, %d of input) error %v, stdlib %v", tc.n, len(want), len(tc.z), gerr, werr)
		}
		if werr == nil && !bytes.Equal(a, b) {
			t.Fatalf("InflateInto(%d bytes) differs from stdlib", tc.n)
		}
	}
}

// inflateShapes are the data shapes the repository deflates: text-like
// repeats, noise, runs, and the byte planes of jittered coordinates.
func inflateShapes() map[string][]byte {
	rng := rand.New(rand.NewSource(34))
	noise := make([]byte, 20000)
	rng.Read(noise)
	runs := make([]byte, 0, 70000)
	for len(runs) < 70000 {
		runs = append(runs, bytes.Repeat([]byte{byte(rng.Intn(4))}, 1+rng.Intn(300))...)
	}
	coords, _ := planeInputs(4096)
	var planes []byte
	for _, p := range coords {
		planes = append(planes, p...)
	}
	return map[string][]byte{
		"empty":  nil,
		"byte":   {7},
		"text":   bytes.Repeat([]byte("canopus geometry plane, level 3; "), 900),
		"noise":  noise,
		"runs":   runs,
		"planes": planes,
	}
}

var stdlibLevels = []int{flate.HuffmanOnly, flate.NoCompression, flate.BestSpeed, flate.DefaultCompression, flate.BestCompression}

func deflateLevel(t testing.TB, src []byte, level int) []byte {
	var buf bytes.Buffer
	fw, err := flate.NewWriter(&buf, level)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fw.Write(src); err != nil {
		t.Fatal(err)
	}
	if err := fw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestInflateMatchesStdlib runs the differential check on every stdlib
// level and data shape, and on truncations and byte flips of each stream.
func TestInflateMatchesStdlib(t *testing.T) {
	rng := rand.New(rand.NewSource(1951))
	for name, src := range inflateShapes() {
		for _, level := range stdlibLevels {
			z := deflateLevel(t, src, level)
			got, err := InflateAppend(nil, z)
			if err != nil || !bytes.Equal(got, src) {
				t.Fatalf("%s level %d: round trip failed: %v", name, level, err)
			}
			checkInflateVsStdlib(t, z)
			for _, cut := range []int{0, 1, len(z) / 3, len(z) / 2, len(z) - 2, len(z) - 1} {
				if cut >= 0 && cut < len(z) {
					checkInflateVsStdlib(t, z[:cut])
				}
			}
			flipped := make([]byte, len(z))
			for range 40 {
				if len(z) == 0 {
					break
				}
				copy(flipped, z)
				flipped[rng.Intn(len(z))] ^= byte(1 + rng.Intn(255))
				checkInflateVsStdlib(t, flipped)
			}
		}
	}
	// Random bytes: almost all rejected, and by both.
	for range 2000 {
		z := make([]byte, rng.Intn(64))
		rng.Read(z)
		checkInflateVsStdlib(t, z)
	}
}

// bitStream builds DEFLATE streams by hand, least significant bit first.
type bitStream struct {
	out []byte
	acc uint64
	n   uint
}

func (w *bitStream) bits(v uint64, n uint) *bitStream {
	w.acc |= v << w.n
	w.n += n
	for w.n >= 8 {
		w.out = append(w.out, byte(w.acc))
		w.acc >>= 8
		w.n -= 8
	}
	return w
}

// code writes a Huffman code, most significant bit first.
func (w *bitStream) code(c uint64, n uint) *bitStream {
	return w.bits(uint64(bits.Reverse16(uint16(c))>>(16-n)), n)
}

// stored aligns to a byte and writes a stored block's LEN, NLEN and body.
func (w *bitStream) stored(n, nn uint16, body []byte) *bitStream {
	w.out = w.bytes()
	w.acc, w.n = 0, 0
	w.out = binary.LittleEndian.AppendUint16(w.out, n)
	w.out = binary.LittleEndian.AppendUint16(w.out, nn)
	w.out = append(w.out, body...)
	return w
}

func (w *bitStream) bytes() []byte {
	if w.n > 0 {
		return append(w.out, byte(w.acc))
	}
	return w.out
}

// fixedLitCode writes literal/length symbol s with the fixed code.
func (w *bitStream) fixedLitCode(s int) *bitStream {
	switch {
	case s < 144:
		return w.code(uint64(0x30+s), 8)
	case s < 256:
		return w.code(uint64(0x190+s-144), 9)
	case s < 280:
		return w.code(uint64(s-256), 7)
	}
	return w.code(uint64(0xc0+s-280), 8)
}

// canonical returns the canonical codes of the code lengths lens.
func canonical(lens []uint8) []uint64 {
	var count [16]int
	for _, l := range lens {
		count[l]++
	}
	count[0] = 0
	var next [16]uint64
	code := uint64(0)
	for l := 1; l < 16; l++ {
		code = (code + uint64(count[l-1])) << 1
		next[l] = code
	}
	codes := make([]uint64, len(lens))
	for s, l := range lens {
		if l != 0 {
			codes[s] = next[l]
			next[l]++
		}
	}
	return codes
}

// dynamicHeader writes a dynamic block's header: HLIT and HDIST for nlit
// and ndist code lengths, the code-length code pre (a length for each of
// its 19 symbols), then syms, each a code-length symbol and the value of
// its repeat bits.
func (w *bitStream) dynamicHeader(final bool, nlit, ndist int, pre []uint8, syms [][2]int) *bitStream {
	w.bits(b2u(final), 1).bits(2, 2)
	w.bits(uint64(nlit-257), 5).bits(uint64(ndist-1), 5).bits(19-4, 4)
	for _, s := range []int{16, 17, 18, 0, 8, 7, 9, 6, 10, 5, 11, 4, 12, 3, 13, 2, 14, 1, 15} {
		w.bits(uint64(pre[s]), 3)
	}
	codes := canonical(pre)
	for _, sym := range syms {
		w.code(codes[sym[0]], uint(pre[sym[0]]))
		if x := map[int]uint{16: 2, 17: 3, 18: 7}[sym[0]]; x != 0 {
			w.bits(uint64(sym[1]), x)
		}
	}
	return w
}

// lengthSyms spells code lengths as one code-length symbol each.
func lengthSyms(lens ...[]uint8) [][2]int {
	var syms [][2]int
	for _, ls := range lens {
		for _, l := range ls {
			syms = append(syms, [2]int{int(l)})
		}
	}
	return syms
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// handStreams are streams at the edges of what stdlib accepts, each with
// the verdict stdlib gives it.
func handStreams() []struct {
	name string
	z    []byte
	ok   bool
} {
	fixed := func() *bitStream { return new(bitStream).bits(1, 1).bits(1, 2) }
	stored := func(final bool, n, nn uint16, body []byte) *bitStream {
		return new(bitStream).bits(b2u(final), 1).bits(0, 2).stored(n, nn, body)
	}
	// Literal 'a' (1 bit), end of block (2 bits), length 3 (2 bits); the
	// code-length code gives symbols 0-15 four bits each.
	lit := make([]uint8, 258)
	lit['a'], lit[256], lit[257] = 1, 2, 2
	litCodes := canonical(lit)
	oneDist := []uint8{1}
	litOnly := make([]uint8, 257)
	litOnly['a'], litOnly[256] = 1, 1
	litOnlyCodes := canonical(litOnly)
	fourBits := make([]uint8, 19)
	for s := range 16 {
		fourBits[s] = 4
	}
	dynamic := func(nlit, ndist int, lens ...[]uint8) *bitStream {
		return new(bitStream).dynamicHeader(true, nlit, ndist, fourBits, lengthSyms(lens...))
	}
	// 'a', a match of 3 at distance 1, end of block.
	aaaa := func(w *bitStream) []byte {
		return w.code(litCodes['a'], 1).code(litCodes[257], 2).code(0, 1).code(litCodes[256], 2).bytes()
	}
	// Code-length codes with 16, 17 and 18 in them.
	repeat16 := make([]uint8, 19)
	repeat16[16] = 1
	for s := range 16 {
		repeat16[s] = 5
	}
	zeroRuns := make([]uint8, 19)
	zeroRuns[16], zeroRuns[17], zeroRuns[18], zeroRuns[0] = 2, 2, 2, 2
	history := bytes.Repeat([]byte("0123456789abcdef"), 2100) // 33,600 bytes

	return []struct {
		name string
		z    []byte
		ok   bool
	}{
		{"fixed block", fixed().fixedLitCode('a').fixedLitCode('b').
			fixedLitCode(257).code(1, 5). // length 3, distance 2
			fixedLitCode(256).bytes(), true},
		{"stored block", stored(true, 3, ^uint16(3), []byte("abc")).bytes(), true},
		{"empty stored block", stored(true, 0, 0xffff, nil).bytes(), true},
		{"stored block with a bad NLEN", stored(true, 3, 0, []byte("abc")).bytes(), false},
		{"one-code distance tree", aaaa(dynamic(258, 1, lit, oneDist)), true},
		{"one-code distance tree, unused code", dynamic(258, 1, lit, oneDist).
			code(litCodes['a'], 1).code(litCodes[257], 2).code(1, 1).code(litCodes[256], 2).bytes(), false},
		{"empty distance tree, literals only", dynamic(257, 1, litOnly, []uint8{0}).
			code(litOnlyCodes['a'], 1).code(litOnlyCodes[256], 1).bytes(), true},
		{"empty distance tree, a match", aaaa(dynamic(258, 1, lit, []uint8{0})), false},
		{"HLIT of 286", aaaa(dynamic(286, 1, append(lit, make([]uint8, 28)...), oneDist)), true},
		{"HLIT over 286", aaaa(dynamic(287, 1, append(lit, make([]uint8, 29)...), oneDist)), false},
		{"HDIST over 30", aaaa(dynamic(258, 31, lit, append(oneDist, make([]uint8, 30)...))), false},
		{"repeat code 16 first", aaaa(new(bitStream).dynamicHeader(true, 258, 1, repeat16,
			append([][2]int{{16, 0}}, lengthSyms(lit[3:], oneDist)...))), false},
		{"repeat past the lengths", new(bitStream).dynamicHeader(true, 257, 1, zeroRuns,
			[][2]int{{18, 127}, {18, 127}}).bits(0, 32).bytes(), false}, // 276 of 258
		{"symbol 286", fixed().fixedLitCode('a').fixedLitCode(286).code(0, 5).fixedLitCode(256).bytes(), false},
		{"symbol 287", fixed().fixedLitCode('a').fixedLitCode(287).code(0, 5).fixedLitCode(256).bytes(), false},
		{"distance code 30", fixed().fixedLitCode('a').fixedLitCode(257).code(30, 5).fixedLitCode(256).bytes(), false},
		{"distance code 31", fixed().fixedLitCode('a').fixedLitCode(257).code(31, 5).fixedLitCode(256).bytes(), false},
		{"distance code 30 after 32 KiB", stored(false, uint16(len(history)), ^uint16(len(history)), history).
			bits(1, 1).bits(1, 2).fixedLitCode(257).code(30, 5).bits(0, 14).fixedLitCode(256).bytes(), false},
		{"distance 32768", stored(false, uint16(len(history)), ^uint16(len(history)), history).
			bits(1, 1).bits(1, 2).fixedLitCode(257).code(29, 5).bits(8191, 13).fixedLitCode(256).bytes(), true},
		{"distance past the output", fixed().fixedLitCode('a').fixedLitCode(257).code(1, 5).fixedLitCode(256).bytes(), false},
		{"distance to the first byte", fixed().fixedLitCode('a').fixedLitCode(257).code(0, 5).fixedLitCode(256).bytes(), true},
		{"length 258 from code 284", fixed().fixedLitCode('a').fixedLitCode(284).bits(31, 5).code(0, 5).fixedLitCode(256).bytes(), true},
		{"block type 3", new(bitStream).bits(1, 1).bits(3, 2).bytes(), false},
		{"not final, then nothing", new(bitStream).bits(0, 1).bits(1, 2).fixedLitCode(256).bytes(), false},
	}
}

func TestInflateHandStreams(t *testing.T) {
	for _, tc := range handStreams() {
		_, werr := stdlibInflate(tc.z)
		if (werr == nil) != tc.ok {
			t.Errorf("%s: stdlib error %v, want ok=%v (the stream is built wrong)", tc.name, werr, tc.ok)
			continue
		}
		checkInflateVsStdlib(t, tc.z)
	}
}

func FuzzInflateVsStdlib(f *testing.F) {
	src := inflateShapes()
	for _, level := range stdlibLevels {
		for _, name := range []string{"byte", "text", "runs"} {
			s := src[name]
			if len(s) > 4096 {
				s = s[:4096]
			}
			f.Add(deflateLevel(f, s, level))
		}
	}
	for _, tc := range handStreams() {
		f.Add(tc.z)
	}
	f.Fuzz(func(t *testing.T, z []byte) {
		checkInflateVsStdlib(t, z)
	})
}

// TestInflateAllocs holds a warmed inflate to no allocations: the tables
// are pooled and the output is the caller's.
func TestInflateAllocs(t *testing.T) {
	src := inflateShapes()["planes"]
	z, err := DeflateAppend(nil, src)
	if err != nil {
		t.Fatal(err)
	}
	dst := make([]byte, len(src))
	if err := InflateInto(dst, z); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(20, func() {
		if err := InflateInto(dst, z); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("InflateInto: %v allocations per call, want 0", n)
	}
	buf := make([]byte, 0, len(src))
	if n := testing.AllocsPerRun(20, func() {
		if _, err := InflateAppend(buf, z); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("InflateAppend with room: %v allocations per call, want 0", n)
	}
}

// planeInputs splits n jittered float64 coordinates into their 8 byte
// planes and 2n zigzag index deltas into their 4, as mesh.Encode does:
// low mantissa planes are noise, high planes are runs.
func planeInputs(n int) (coords, indices [][]byte) {
	rng := rand.New(rand.NewSource(7))
	coords = make([][]byte, 8)
	for k := range coords {
		coords[k] = make([]byte, n)
	}
	for i := range n {
		c := math.Float64bits(0.25 + 0.5*float64(i)/float64(n) + 1e-4*rng.Float64())
		for k := range coords {
			coords[k][i] = byte(c >> (8 * k))
		}
	}
	indices = make([][]byte, 4)
	for k := range indices {
		indices[k] = make([]byte, 2*n)
	}
	prev := int64(0)
	for i := range 2 * n {
		idx := int64(i/2) + int64(rng.Intn(64)) - 32
		d := idx - prev
		prev = idx
		z := uint32(d<<1) ^ uint32(d>>63)
		for k := range indices {
			indices[k][i] = byte(z >> (8 * k))
		}
	}
	return coords, indices
}

// BenchmarkInflate measures output MB/s of this package's decoder (new)
// against the pooled compress/flate reader it replaced (stdlib), on the
// byte planes of 32768 vertices' coordinates and 65536 triangle corners'
// index deltas, each deflated with DeflateAppend: all twelve planes, and
// the run-heavy high planes alone.
func BenchmarkInflate(b *testing.B) {
	coords, indices := planeInputs(32768)
	inputs := []struct {
		name   string
		planes [][]byte
	}{
		{"planes", append(append([][]byte(nil), coords...), indices...)},
		{"runs", [][]byte{coords[6], coords[7], indices[1], indices[2], indices[3]}},
	}
	for _, dec := range []struct {
		name    string
		inflate func(dst, src []byte) error
	}{
		{"new", InflateInto},
		{"stdlib", stdlibInflateInto},
	} {
		for _, in := range inputs {
			zs := make([][]byte, len(in.planes))
			size := 0
			for i, p := range in.planes {
				z, err := DeflateAppend(nil, p)
				if err != nil {
					b.Fatal(err)
				}
				zs[i] = z
				size += len(p)
			}
			b.Run(dec.name+"/"+in.name, func(b *testing.B) {
				b.SetBytes(int64(size))
				b.ReportAllocs()
				for range b.N {
					// Each plane inflates over itself: an exact-size
					// destination, rewritten with its own bytes.
					for i, z := range zs {
						if err := dec.inflate(in.planes[i], z); err != nil {
							b.Fatal(err)
						}
					}
				}
			})
		}
	}
}
