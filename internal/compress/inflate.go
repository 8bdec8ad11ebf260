package compress

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/bits"
	"runtime"
	"slices"
)

// This file is a whole-buffer RFC 1951 (DEFLATE) decoder. Every inflate in
// the repository runs through it: geometry planes in internal/mesh,
// mappings and pre-version-2 geometry in internal/core, and the sz and
// flate codecs here. The encoder is compress/flate's, so the decoder's
// contract is stdlib's: it accepts exactly the streams compress/flate
// accepts and produces the same bytes. The tests hold it to that with
// stdlib as the oracle.
//
// The input and the output are both whole buffers, which is what makes it
// fast: bits are refilled a 64-bit word at a time, a match copies from the
// output itself (all of it is history, so there is no 32 KiB window), and
// the decode loop keeps its state in locals rather than behind a reader.

// A table entry packs everything one Huffman lookup resolves, so a length
// or distance and its extra bits come out of a single load:
//
//	bits 0-5    code length (for a subtable link: the subtable's index bits)
//	bits 6-9    extra bits that follow the code
//	bits 10-14  kind
//	bits 16-31  value: a literal byte, a length or distance base, a
//	            code-length symbol, or a subtable's offset
//
// An entry of no kind is a code that must not occur: an unused slot of an
// empty or single-code table, literal/length symbols 286 and 287, and
// distance codes 30 and 31.
const (
	entBits       = 63 // the code length: a shift count as it stands
	entExtraShift = 6

	entLit  = 1 << 10 // a literal byte, or a code-length symbol
	entLen  = 1 << 11 // a match length
	entEOB  = 1 << 12 // the end of the block
	entSub  = 1 << 13 // a link to a subtable for codes longer than the root
	entDist = 1 << 14 // a match distance
)

const (
	maxLitSyms  = 286 // literal/length symbols a dynamic block may define
	maxDistSyms = 30  // distance symbols a dynamic block may define

	litRootBits  = 10
	distRootBits = 8
	preBits      = 7 // code-length codes are at most 7 bits: no subtables

	// Capacity that holds any root table and its subtables (zlib's enough
	// program: "enough 288 10 15" and "enough 32 8 15"). The builder grows
	// a table past it rather than trust the bound.
	litEnough  = 1334
	distEnough = 402

	// The fast loop runs while a word refill cannot read past the input
	// and a longest match, copied in 32-byte pieces, fits in the output.
	fastInput  = 8
	fastOutput = 258 + 31
)

// Symbol values before the code length is or-ed in.
var (
	litSyms  [288]uint32
	distSyms [32]uint32
	preSyms  [19]uint32

	fixedLit, fixedDist []uint32
)

func init() {
	lenBase := [...]uint32{3, 4, 5, 6, 7, 8, 9, 10, 11, 13, 15, 17, 19, 23, 27, 31, 35, 43, 51, 59, 67, 83, 99, 115, 131, 163, 195, 227, 258}
	lenExtra := [...]uint32{0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 2, 3, 3, 3, 3, 4, 4, 4, 4, 5, 5, 5, 5, 0}
	for s := range 256 {
		litSyms[s] = entLit | uint32(s)<<16
	}
	litSyms[256] = entEOB
	for i := range lenBase {
		litSyms[257+i] = entLen | lenExtra[i]<<entExtraShift | lenBase[i]<<16
	}
	for d := range maxDistSyms {
		base, extra := uint32(d+1), uint32(0)
		if d >= 4 {
			extra = uint32(d-2) >> 1
			base = 1<<(extra+1) + 1 + uint32(d&1)<<extra
		}
		distSyms[d] = entDist | extra<<entExtraShift | base<<16
	}
	for s := range preSyms {
		preSyms[s] = entLit | uint32(s)<<16
	}

	// RFC 1951 §3.2.6.
	var lens [288]uint8
	for s := range lens {
		switch {
		case s < 144:
			lens[s] = 8
		case s < 256:
			lens[s] = 9
		case s < 280:
			lens[s] = 7
		default:
			lens[s] = 8
		}
	}
	fixedLit, _ = buildTable(make([]uint32, 1<<litRootBits), litRootBits, lens[:], litSyms[:])
	for s := range 32 {
		lens[s] = 5
	}
	fixedDist, _ = buildTable(make([]uint32, 1<<distRootBits), distRootBits, lens[:32], distSyms[:])
}

// buildTable fills t with the decode table of the canonical Huffman code
// whose code lengths are lens: a root table of 1<<root entries indexed by
// the next root input bits, then subtables for longer codes. Symbol s
// decodes to syms[s] with its code length or-ed in. It accepts exactly the
// length sets compress/flate's huffmanDecoder.init accepts — a complete
// code, no code at all, or a single code of length 1 — and reports false
// for any other. The returned table is t, grown if it was too small.
func buildTable(t []uint32, root uint, lens []uint8, syms []uint32) ([]uint32, bool) {
	var count [16]int
	for _, l := range lens {
		count[l]++
	}
	count[0] = 0
	maxLen := 15
	for maxLen > 0 && count[maxLen] == 0 {
		maxLen--
	}
	// left is the code space no code claims, in units of 2^-maxLen.
	left := 1
	for l := 1; l <= maxLen; l++ {
		left = left<<1 - count[l]
	}
	switch {
	case left < 0:
		return t, false // over-subscribed
	case left > 0 && maxLen > 1:
		return t, false // incomplete, and not empty or one 1-bit code
	}

	rootSize := 1 << root
	t = growTable(t, rootSize)
	if left != 0 {
		// Empty or single-code: the slots no code fills must read as
		// invalid.
		clear(t[:rootSize])
	}

	// Symbols in canonical order: by code length, then by symbol.
	var offs [16]int
	for l := 1; l < 15; l++ {
		offs[l+1] = offs[l] + count[l]
	}
	var sorted [288]uint16
	for s, l := range lens {
		if l != 0 {
			sorted[offs[l]] = uint16(s)
			offs[l]++
		}
	}

	// A code no longer than the root repeats every 1<<maxLen root entries:
	// fill the first period, then copy it.
	period := min(rootSize, 1<<maxLen)
	code, i := 0, 0
	subPrefix, subStart, next := -1, 0, rootSize
	for l := 1; l <= maxLen; l++ {
		for range count[l] {
			s := sorted[i]
			i++
			rev := int(bits.Reverse16(uint16(code)) >> (16 - l))
			entry := syms[s] | uint32(l)
			code++
			if l <= int(root) {
				for j := rev; j < period; j += 1 << l {
					t[j] = entry
				}
				count[l]--
				continue
			}
			if prefix := rev & (rootSize - 1); prefix != subPrefix {
				// A new subtable, just wide enough for the longest code
				// under this prefix (zlib's inflate_table sizing).
				k := l - int(root)
				room := 1 << k
				for k+int(root) < maxLen {
					room -= count[k+int(root)]
					if room <= 0 {
						break
					}
					k++
					room <<= 1
				}
				subPrefix, subStart = prefix, next
				next += 1 << k
				t = growTable(t, next)
				t[prefix] = entSub | uint32(k) | uint32(subStart)<<16
			}
			k := t[subPrefix] & entBits
			for j := rev >> root; j < 1<<k; j += 1 << (l - int(root)) {
				t[subStart+j] = entry
			}
			count[l]--
		}
		code <<= 1
	}
	for j := period; j < rootSize; j *= 2 {
		copy(t[j:2*j], t[:j])
	}
	return t[:next], true
}

// growTable returns t with length at least n, keeping its contents.
func growTable(t []uint32, n int) []uint32 {
	if n <= cap(t) {
		return t[:cap(t)]
	}
	g := make([]uint32, n)
	copy(g, t)
	return g
}

// inflateState is the per-call table storage, kept for reuse so a warmed
// inflate allocates nothing.
type inflateState struct {
	lit  []uint32
	dist []uint32
	pre  [1 << preBits]uint32
	lens [maxLitSyms + maxDistSyms]uint8
}

// spareInflate is a fixed free list of inflate states, one per processor
// that can inflate at once. It is not a sync.Pool because a pool drops a
// share of its puts on purpose under the race detector, and the collector
// empties it, so a warmed inflate would still allocate.
var spareInflate = make(chan *inflateState, runtime.GOMAXPROCS(0))

func getInflateState() *inflateState {
	select {
	case s := <-spareInflate:
		return s
	default:
		return &inflateState{lit: make([]uint32, litEnough), dist: make([]uint32, distEnough)}
	}
}

func putInflateState(s *inflateState) {
	select {
	case spareInflate <- s:
	default:
	}
}

var (
	errCorrupt    = errors.New("compress: corrupt DEFLATE stream")
	errOutputFull = errors.New("compress: output buffer full")
)

// blockStatus is what a block decoding step stopped on.
type blockStatus uint8

const (
	blockMore    blockStatus = iota // the block goes on
	blockEnd                        // end-of-block code consumed
	blockFull                       // the next symbol does not fit the output
	blockCorrupt                    // a code or distance the format forbids
	blockEOF                        // the input ended inside a symbol
)

// inflate decodes the DEFLATE stream at the start of src into out[op:],
// where out[start:op] is output already produced (empty at the first
// call). When grow is set, out is grown as needed; otherwise running out
// of room is errOutputFull. It returns the output, the end of what was
// written, and how many bytes of src the stream used.
func (s *inflateState) inflate(out []byte, start int, src []byte, grow bool) ([]byte, int, int, error) {
	op := start
	var bb uint64 // input bits, next bit lowest; the bits above nb are zero or already the next input bits
	var nb uint   // bits in bb
	pos := 0      // next input byte to load into bb
	for final := false; !final; {
		bb, nb, pos = refill(src, bb, nb, pos)
		if nb < 3 {
			return out, op, 0, io.ErrUnexpectedEOF
		}
		final = bb&1 != 0
		typ := bb >> 1 & 3
		bb, nb = bb>>3, nb-3

		var lit, dist []uint32
		switch typ {
		case 0:
			// Stored: skip to a byte boundary and hand back the whole
			// bytes still buffered.
			pos -= int(nb >> 3)
			bb, nb = 0, 0
			if len(src)-pos < 4 {
				return out, op, 0, io.ErrUnexpectedEOF
			}
			n := int(binary.LittleEndian.Uint16(src[pos:]))
			if binary.LittleEndian.Uint16(src[pos+2:]) != ^uint16(n) {
				return out, op, 0, errCorrupt
			}
			pos += 4
			if len(src)-pos < n {
				return out, op, 0, io.ErrUnexpectedEOF
			}
			if len(out)-op < n {
				if !grow {
					return out, op, 0, errOutputFull
				}
				out = growOutput(out, op, n)
			}
			op += copy(out[op:op+n], src[pos:pos+n])
			pos += n
			continue
		case 1:
			lit, dist = fixedLit, fixedDist
		case 2:
			var st blockStatus
			bb, nb, pos, st = s.readDynamic(src, bb, nb, pos)
			if err := st.err(); err != nil {
				return out, op, 0, err
			}
			lit, dist = s.lit, s.dist
		default:
			return out, op, 0, errCorrupt
		}

		for st := blockMore; st != blockEnd; {
			bb, nb, pos, op, st = decodeFast(lit, dist, src, out, start, bb, nb, pos, op)
			if st == blockMore {
				bb, nb, pos, op, st = decodeOne(lit, dist, src, out, start, bb, nb, pos, op)
			}
			switch st {
			case blockFull:
				if !grow {
					return out, op, 0, errOutputFull
				}
				out = growOutput(out, op, 258)
			case blockCorrupt, blockEOF:
				return out, op, 0, st.err()
			}
		}
	}
	return out, op, pos - int(nb>>3), nil
}

func (st blockStatus) err() error {
	switch st {
	case blockCorrupt:
		return errCorrupt
	case blockEOF:
		return io.ErrUnexpectedEOF
	}
	return nil
}

// growOutput returns out, keeping out[:op], with room for at least need
// more bytes; the room at least doubles what is there.
func growOutput(out []byte, op, need int) []byte {
	out = slices.Grow(out[:op], max(need, op, 4096))
	return out[:cap(out)]
}

// refill tops up the bit buffer to at least 56 bits, or with all the input
// that is left.
func refill(src []byte, bb uint64, nb uint, pos int) (uint64, uint, int) {
	if pos <= len(src)-8 {
		bb |= binary.LittleEndian.Uint64(src[pos:]) << (nb & 63)
		return bb, nb | 56, pos + int((63-nb)>>3)
	}
	for nb <= 56 && pos < len(src) {
		bb |= uint64(src[pos]) << (nb & 63)
		pos++
		nb += 8
	}
	return bb, nb, pos
}

// readDynamic reads a dynamic block's header (RFC 1951 §3.2.7) and builds
// its literal/length and distance tables into s.lit and s.dist.
func (s *inflateState) readDynamic(src []byte, bb uint64, nb uint, pos int) (uint64, uint, int, blockStatus) {
	bb, nb, pos = refill(src, bb, nb, pos)
	if nb < 14 {
		return bb, nb, pos, blockEOF
	}
	nlit := int(bb&31) + 257
	ndist := int(bb>>5&31) + 1
	nclen := int(bb>>10&15) + 4
	bb, nb = bb>>14, nb-14
	if nlit > maxLitSyms || ndist > maxDistSyms {
		return bb, nb, pos, blockCorrupt
	}

	order := [19]uint8{16, 17, 18, 0, 8, 7, 9, 6, 10, 5, 11, 4, 12, 3, 13, 2, 14, 1, 15}
	var clens [19]uint8
	for _, sym := range order[:nclen] {
		if nb < 3 {
			if bb, nb, pos = refill(src, bb, nb, pos); nb < 3 {
				return bb, nb, pos, blockEOF
			}
		}
		clens[sym] = uint8(bb & 7)
		bb, nb = bb>>3, nb-3
	}
	if _, ok := buildTable(s.pre[:], preBits, clens[:], preSyms[:]); !ok {
		return bb, nb, pos, blockCorrupt
	}

	lens := s.lens[:nlit+ndist]
	for i := 0; i < len(lens); {
		// One code (≤7 bits) and its repeat bits (≤7) fit in a refill.
		bb, nb, pos = refill(src, bb, nb, pos)
		e := s.pre[bb&(1<<preBits-1)]
		n := uint(e & entBits)
		if e&entLit == 0 {
			return bb, nb, pos, blockCorrupt
		}
		if n > nb {
			return bb, nb, pos, blockEOF
		}
		bb, nb = bb>>n, nb-n
		sym := e >> 16
		if sym < 16 {
			lens[i] = uint8(sym)
			i++
			continue
		}
		var rep int
		var x uint
		var val uint8
		switch sym {
		case 16:
			if i == 0 {
				return bb, nb, pos, blockCorrupt
			}
			rep, x, val = 3, 2, lens[i-1]
		case 17:
			rep, x = 3, 3
		default:
			rep, x = 11, 7
		}
		if x > nb {
			return bb, nb, pos, blockEOF
		}
		rep += int(bb & (1<<x - 1))
		bb, nb = bb>>x, nb-x
		if i+rep > len(lens) {
			return bb, nb, pos, blockCorrupt
		}
		for range rep {
			lens[i] = val
			i++
		}
	}

	var ok bool
	if s.lit, ok = buildTable(s.lit, litRootBits, lens[:nlit], litSyms[:]); !ok {
		return bb, nb, pos, blockCorrupt
	}
	if s.dist, ok = buildTable(s.dist, distRootBits, lens[nlit:], distSyms[:]); !ok {
		return bb, nb, pos, blockCorrupt
	}
	return bb, nb, pos, blockMore
}

// decodeFast decodes a Huffman block's symbols while at least fastInput
// bytes of input and fastOutput bytes of output remain, so that no symbol
// needs a bounds check on either side. It returns blockMore when it leaves
// that region with the block unfinished.
//
// Each pass refills the bit buffer to at least 56 bits and decodes either
// up to three literals (at most 45 bits) or one other symbol (a length and
// a distance with their extra bits are at most 48). A refill loads a whole
// word, so every bit of bb is input even past nb, and at least 16 are left
// after a pass: enough to look up the next entry before the refill.
func decodeFast(lit, dist []uint32, src, out []byte, start int, bb uint64, nb uint, pos, op int) (uint64, uint, int, int, blockStatus) {
	litRoot := (*[1 << litRootBits]uint32)(lit)
	distRoot := (*[1 << distRootBits]uint32)(dist)
	const litMask, distMask = 1<<litRootBits - 1, 1<<distRootBits - 1
	if pos > len(src)-fastInput || op > len(out)-fastOutput {
		return bb, nb, pos, op, blockMore
	}
	bb |= binary.LittleEndian.Uint64(src[pos:]) << (nb & 63)
	pos += int((63 - nb) >> 3)
	nb |= 56
	e := litRoot[bb&litMask]
	for {
		if e&entLit != 0 {
			w := (*[3]byte)(out[op:])
			bb, nb = bb>>(e&entBits), nb-uint(e&entBits)
			w[0] = byte(e >> 16)
			op++
			e = litRoot[bb&litMask]
			if e&entLit != 0 {
				bb, nb = bb>>(e&entBits), nb-uint(e&entBits)
				w[1] = byte(e >> 16)
				op++
				e = litRoot[bb&litMask]
				if e&entLit != 0 {
					bb, nb = bb>>(e&entBits), nb-uint(e&entBits)
					w[2] = byte(e >> 16)
					op++
					e = litRoot[bb&litMask]
				}
			}
		} else {
			if e&entSub != 0 {
				e = lit[e>>16+uint32(bb>>litRootBits)&(1<<(e&entBits)-1)]
			}
			switch {
			case e&entLen != 0:
				n, x := e&entBits, e>>entExtraShift&15
				length := int(e>>16) + int(bb>>n&(1<<x-1))
				bb, nb = bb>>(n+x), nb-uint(n+x)

				d := distRoot[bb&distMask]
				if d&entSub != 0 {
					d = dist[d>>16+uint32(bb>>distRootBits)&(1<<(d&entBits)-1)]
				}
				if d&entDist == 0 {
					return bb, nb, pos, op, blockCorrupt
				}
				n, x = d&entBits, d>>entExtraShift&15
				distance := int(d>>16) + int(bb>>n&(1<<x-1))
				bb, nb = bb>>(n+x), nb-uint(n+x)
				if distance > op-start {
					return bb, nb, pos, op, blockCorrupt
				}
				// Short matches and runs copy by words, which may write up
				// to 31 bytes past the match: fastOutput leaves room, and
				// the decoder overwrites them next.
				from := op - distance
				switch {
				case distance >= 8 && length <= 32:
					for i := 0; i < length; i += 8 {
						binary.LittleEndian.PutUint64(out[op+i:], binary.LittleEndian.Uint64(out[from+i:]))
					}
					op += length
				case distance == 1:
					var run [32]byte
					v := uint64(out[from]) * 0x0101010101010101
					binary.LittleEndian.PutUint64(run[0:], v)
					binary.LittleEndian.PutUint64(run[8:], v)
					binary.LittleEndian.PutUint64(run[16:], v)
					binary.LittleEndian.PutUint64(run[24:], v)
					for i := 0; i < length; i += 32 {
						*(*[32]byte)(out[op+i:]) = run
					}
					op += length
				default:
					op = copyMatch(out, op, distance, length)
				}
			case e&entLit != 0:
				bb, nb = bb>>(e&entBits), nb-uint(e&entBits)
				out[op] = byte(e >> 16)
				op++
			case e&entEOB != 0:
				return bb >> (e & entBits), nb - uint(e&entBits), pos, op, blockEnd
			default:
				return bb, nb, pos, op, blockCorrupt
			}
			e = litRoot[bb&litMask]
		}
		if pos > len(src)-fastInput || op > len(out)-fastOutput {
			return bb, nb, pos, op, blockMore
		}
		bb |= binary.LittleEndian.Uint64(src[pos:]) << (nb & 63)
		pos += int((63 - nb) >> 3)
		nb |= 56
	}
}

// decodeOne decodes one literal, match or end-of-block with every bound
// checked: near the end of the input, where missing bits read as zero and
// a code that needs them is blockEOF, and near the end of the output,
// where a symbol that does not fit is blockFull and left unread.
func decodeOne(lit, dist []uint32, src, out []byte, start int, bb uint64, nb uint, pos, op int) (uint64, uint, int, int, blockStatus) {
	bb, nb, pos = refill(src, bb, nb, pos)
	e := lit[bb&(1<<litRootBits-1)]
	if e&entSub != 0 {
		e = lit[e>>16+uint32(bb>>litRootBits)&(1<<(e&entBits)-1)]
	}
	n := uint(e & entBits)
	switch {
	case e&(entLit|entEOB|entLen) == 0:
		return bb, nb, pos, op, blockCorrupt
	case n > nb:
		return bb, nb, pos, op, blockEOF
	case e&entEOB != 0:
		return bb >> n, nb - n, pos, op, blockEnd
	case e&entLit != 0:
		if op == len(out) {
			return bb, nb, pos, op, blockFull
		}
		out[op] = byte(e >> 16)
		return bb >> n, nb - n, pos, op + 1, blockMore
	}
	x := uint(e >> entExtraShift & 15)
	if n+x > nb {
		return bb, nb, pos, op, blockEOF
	}
	length := int(e>>16) + int(bb>>n&(1<<x-1))
	b, left := bb>>(n+x), nb-n-x

	d := dist[b&(1<<distRootBits-1)]
	if d&entSub != 0 {
		d = dist[d>>16+uint32(b>>distRootBits)&(1<<(d&entBits)-1)]
	}
	if d&entDist == 0 {
		return bb, nb, pos, op, blockCorrupt
	}
	n, x = uint(d&entBits), uint(d>>entExtraShift&15)
	if n+x > left {
		return bb, nb, pos, op, blockEOF
	}
	distance := int(d>>16) + int(b>>n&(1<<x-1))
	if distance > op-start {
		return bb, nb, pos, op, blockCorrupt
	}
	if length > len(out)-op {
		return bb, nb, pos, op, blockFull
	}
	return b >> (n + x), left - n - x, pos, copyMatch(out, op, distance, length), blockMore
}

// copyMatch copies length bytes from distance back in out to out[op:] and
// returns the new end. An overlapping match repeats its period, so each
// copy doubles the bytes the next one can take.
func copyMatch(out []byte, op, distance, length int) int {
	end := op + length
	from := op - distance
	if length <= distance {
		copy(out[op:end], out[from:op])
		return end
	}
	for op < end {
		op += copy(out[op:end], out[from:op])
	}
	return end
}

// InflateAppend decompresses the DEFLATE stream src and appends the result
// to dst, growing it as needed. Bytes after the end of the stream are
// ignored. Callers that know roughly how large the result is pass a dst
// with that capacity; a warmed call that fits allocates nothing.
func InflateAppend(dst, src []byte) ([]byte, error) {
	s := getInflateState()
	defer putInflateState(s)
	out, op, _, err := s.inflate(dst[:cap(dst)], len(dst), src, true)
	if err != nil {
		return nil, err
	}
	return out[:op], nil
}

// InflateInto decompresses src into dst, which the caller sized from a
// trusted-or-checked length: the stream must inflate to exactly len(dst)
// bytes and must be all of src. A stream that ends early, runs long, or
// leaves input unread is an error, so a forged length can neither overrun
// dst nor smuggle bytes past a decoder.
func InflateInto(dst, src []byte) error {
	s := getInflateState()
	defer putInflateState(s)
	_, op, used, err := s.inflate(dst, 0, src, false)
	switch {
	case err == errOutputFull:
		return fmt.Errorf("compress: stream inflates to more than %d bytes", len(dst))
	case err == io.ErrUnexpectedEOF || err == nil && op < len(dst):
		return fmt.Errorf("compress: stream inflates to fewer than %d bytes", len(dst))
	case err != nil:
		return err
	case used != len(src):
		return fmt.Errorf("compress: %d bytes after the end of the stream", len(src)-used)
	}
	return nil
}
