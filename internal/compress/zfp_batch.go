package compress

import (
	"encoding/binary"
	"math"
	"math/bits"
)

// Batch bit-plane coding for the zfp-like coders: the 1D encoder
// (zfpEncodeBlocks, below the tables) and the 1D and 2D decoders. Each
// writes or reads exactly the stream of a retained scalar reference.
//
// The scalar decoders in zfp.go / zfp2d.go walk the embedded bit-plane
// stream one bit at a time: every group-test bit, every zero of a
// significance run, and every raw coefficient bit is a readBit call with a
// branchy byte-sized refill behind it, and the reader state round-trips
// through memory on every call. That per-bit control flow — not the
// arithmetic — is what pinned zfp decode near 75 MB/s while raw moved GB/s.
//
// The batch decoders below keep the stream format bit-identical and decode
// many blocks per call with the bit buffer, bit count, and byte position
// held in locals (registers) for the whole payload. Three mechanisms do the
// work (DESIGN.md §14):
//
//  1. Word-level bitstream reads: the 64-bit bit buffer refills with one
//     unaligned load per ~6 bytes consumed, and a refill at a block or
//     plane boundary guarantees the whole unit — 19 header bits, or a
//     worst-case valid plane (12 bits for 1D, 33 for 2D) — decodes out of
//     the register with no further bounds checks.
//  2. Branchless significance runs: a run of zeros terminated by a one is
//     counted with a single TrailingZeros64 on the buffered word and
//     consumed in one shift, instead of one readBit per zero. Once every
//     coefficient of a block is significant, each remaining plane is a
//     single masked extract.
//  3. Table-driven plane accumulation: each decoded plane is spread into
//     per-coefficient bit lanes through a small table (16-entry for the
//     four 1D lanes, 256-entry twice for the sixteen 2D lanes) and ORed
//     into one accumulator word — one shift-or per plane for the whole
//     block — which is flushed into the per-coefficient negabinary words
//     every lane-width planes.
//
// Rare shapes — the last few bytes of a stream, or corrupt streams that
// push the significance prefix past the block width or a run past the
// buffered word — rewind to the block boundary and re-decode that one block
// with the retained scalar decoder, so batch and scalar decode are bit-exact
// on *arbitrary* input: valid, truncated, or corrupt. FuzzZFPBatchVsScalar
// and FuzzZFP2DBatchVsScalar enforce exactly that.

// spread4 maps a 4-bit plane to four 16-bit lanes: bit i of the index lands
// at bit 16*i. spread8 maps an 8-bit half-plane of the 2D coder to eight
// 4-bit lanes: bit i lands at bit 4*i.
var (
	spread4 = func() (t [16]uint64) {
		for x := range t {
			for i := 0; i < 4; i++ {
				t[x] |= uint64(x>>i&1) << (16 * i)
			}
		}
		return
	}()
	spread8 = func() (t [256]uint32) {
		for x := range t {
			for i := 0; i < 8; i++ {
				t[x] |= uint32(x>>i&1) << (4 * i)
			}
		}
		return
	}()
)

// compactEven gathers the even-position bits of x into the low half — the
// Morton-decode half-shuffle. The s==1 batch mode uses it to peel every DC
// bit out of a run of event-free planes in one pass instead of one shift
// per plane.
func compactEven(x uint64) uint64 {
	x &= 0x5555555555555555
	x = (x | x>>1) & 0x3333333333333333
	x = (x | x>>2) & 0x0f0f0f0f0f0f0f0f
	x = (x | x>>4) & 0x00ff00ff00ff00ff
	x = (x | x>>8) & 0x0000ffff0000ffff
	x = (x | x>>16) & 0x00000000ffffffff
	return x
}

// zfpPlaneCutoff hoists minPlaneFor's tolerance half out of the per-block
// loop: minPlane = clamp(bias - e), with the Ilogb computed once per stream
// instead of once per block. guard is 2 for the 1D coder, 3 for 2D
// (minPlane2DFor's extra guard bit).
type zfpPlaneCutoff struct {
	bias   int
	hasTol bool
}

func newPlaneCutoff(tol float64, guard int) zfpPlaneCutoff {
	if tol == 0 {
		return zfpPlaneCutoff{}
	}
	return zfpPlaneCutoff{bias: math.Ilogb(tol) + zfpQ - guard, hasTol: true}
}

func (c zfpPlaneCutoff) minPlane(e int) int {
	if !c.hasTol {
		return 0
	}
	p := c.bias - e
	if p < 0 {
		p = 0
	}
	if p > 63 {
		p = 64
	}
	return p
}

// nibbleRev8 maps one byte of a coefficient's negabinary word — bit planes
// 8k..8k+7 — to eight nibble lanes in descending plane order: bit i lands at
// bit 4*(7-i). It is the encoder's transpose, the inverse of the decoders'
// spread4: ORing the four coefficients' entries (shifted by 0..3) yields the
// block's plane nibbles for those eight planes, highest plane first, which
// is the order the plane coder writes them.
var nibbleRev8 = func() (t [256]uint32) {
	for x := range t {
		for i := 0; i < 8; i++ {
			t[x] |= uint32(x>>i&1) << (4 * (7 - i))
		}
	}
	return
}()

// zfpEncodeBlocks appends the 1D block stream of vals to w: the production
// encode path behind ZFP.Encode, writing exactly the bits encodeZFPBlock
// writes block by block. vals must be finite. Four mechanisms replace the
// scalar coder's per-bit calls:
//
//  1. The writer's pending word and bit count live in locals for the whole
//     stream, and only whole 64-bit words are appended to the buffer.
//  2. The block exponent and scale come from the largest absolute-value bit
//     pattern (finite floats order like their magnitudes' bits), built
//     directly from the exponent field; subnormal maxima and blocks below
//     e = -971, where the scale needs two steps, take Frexp and zfpScale.
//  3. nibbleRev8 transposes the four negabinary words into a 256-bit string
//     of plane nibbles in stream order, only for the bytes the kept planes
//     touch.
//  4. The significance phase (prefix s < 4) writes a run of planes at once:
//     until the highest bit of a not-yet-significant coefficient, every
//     plane is s raw bits and a 0 group bit, which is the low s+1 bits of
//     its nibble, so the run is the nibble string compacted to (s+1)-bit
//     slots. The plane holding that bit is coded alone, its runs counted
//     with TrailingZeros64, in one write. Once all four coefficients are
//     significant, the remaining planes down to minPlane are the nibble
//     string itself, copied out up to 16 planes per write.
func zfpEncodeBlocks(w *bitWriter, vals []float64, tol float64) {
	cut := newPlaneCutoff(tol, 2)
	buf, cur, n := w.buf, w.cur, w.nbit
	const absMask = 1<<63 - 1
	nv := len(vals)
	for i := 0; i < nv; i += 4 {
		var f [4]float64
		if i+4 <= nv {
			f = *(*[4]float64)(vals[i : i+4])
		} else {
			// Pad short tail blocks by replicating the last sample.
			k := copy(f[:], vals[i:])
			for j := k; j < 4; j++ {
				f[j] = f[k-1]
			}
		}
		amax := max(math.Float64bits(f[0])&absMask, math.Float64bits(f[1])&absMask,
			math.Float64bits(f[2])&absMask, math.Float64bits(f[3])&absMask)
		if amax == 0 {
			buf, cur, n = emitBits(buf, cur, n, 0, 1) // zero block
			continue
		}
		var e int
		var q0, q1, q2, q3 int64
		if ex := int(amax >> 52); ex >= 51 {
			// amax in [2^(ex-1023), 2^(ex-1022)): e = ex-1022 and the scale
			// 2^(zfpQ-e) has biased exponent 2097-ex.
			e = ex - 1022
			s := math.Float64frombits(uint64(2097-ex) << 52)
			q0 = int64(math.RoundToEven(f[0] * s))
			q1 = int64(math.RoundToEven(f[1] * s))
			q2 = int64(math.RoundToEven(f[2] * s))
			q3 = int64(math.RoundToEven(f[3] * s))
		} else {
			_, e = math.Frexp(math.Float64frombits(amax))
			s1, s2 := zfpScale(e)
			q0 = int64(math.RoundToEven(f[0] * s1 * s2))
			q1 = int64(math.RoundToEven(f[1] * s1 * s2))
			q2 = int64(math.RoundToEven(f[2] * s1 * s2))
			q3 = int64(math.RoundToEven(f[3] * s1 * s2))
		}
		u0 := toNegabinary(q0 + q1 + q2 + q3)
		u1 := toNegabinary(q0 + q1 - q2 - q3)
		u2 := toNegabinary(q0 - q1 - q2 + q3)
		u3 := toNegabinary(q0 - q1 + q2 - q3)
		maxPlane := 63 - bits.LeadingZeros64(u0|u1|u2|u3)
		minPlane := cut.minPlane(e)
		if maxPlane < minPlane {
			// All content below the cutoff: a zero block.
			buf, cur, n = emitBits(buf, cur, n, 0, 1)
			continue
		}
		// Plane nibble string: plane p's nibble sits at bit 4*(63-p), so
		// planes maxPlane..minPlane are contiguous in stream order.
		var ns [4]uint64
		for b := minPlane >> 3; b <= maxPlane>>3; b++ {
			sh := 8 * uint(b)
			x := uint64(nibbleRev8[u0>>sh&0xff]) | uint64(nibbleRev8[u1>>sh&0xff])<<1 |
				uint64(nibbleRev8[u2>>sh&0xff])<<2 | uint64(nibbleRev8[u3>>sh&0xff])<<3
			t := 7 - b
			ns[t>>1&3] |= x << (32 * uint(t&1))
		}
		// pending[s] holds the coefficients not yet significant at prefix s.
		pending := [4]uint64{u0 | u1 | u2 | u3, u1 | u2 | u3, u2 | u3, u3}
		buf, cur, n = emitBits(buf, cur, n, 1|uint64(e+2048)<<1|uint64(maxPlane)<<13, 19)
		p := maxPlane
		sig := uint(0) // significance prefix
		for p >= minPlane {
			if sig == 4 {
				// Raw nibbles down to minPlane, 16 planes per write.
				for a, end := uint(4*(63-p)), uint(4*(64-minPlane)); a < end; a += 64 {
					k := min(64, end-a)
					buf, cur, n = emitBits(buf, cur, n, nibbleRun(&ns, a, k), k)
				}
				break
			}
			// Event-free planes down to the next significance event.
			next := 63 - bits.LeadingZeros64(pending[sig])
			for m := p - max(next, minPlane-1); m > 0; {
				c := uint(min(m, 16))
				x := compactNibbles(nibbleRun(&ns, uint(4*(63-p)), 4*c), sig+1)
				buf, cur, n = emitBits(buf, cur, n, x, c*(sig+1))
				p -= int(c)
				m -= int(c)
			}
			if p < minPlane {
				break
			}
			// Plane p: raw prefix, then group bits and runs.
			t := uint(63 - p)
			x := ns[t>>4&3] >> (4 * (t & 15)) & 15
			v := x & (1<<sig - 1)
			k := sig
			x >>= sig
			for sig < 4 {
				if x == 0 {
					k++ // group bit 0: no new significance
					break
				}
				// Group bit 1, tz zeros, the terminating one.
				tz := uint(bits.TrailingZeros64(x))
				v |= (1 | 2<<tz) << k
				k += tz + 2
				x >>= tz + 1
				sig += tz + 1
			}
			buf, cur, n = emitBits(buf, cur, n, v, k)
			p--
		}
	}
	w.buf, w.cur, w.nbit = buf, cur, n
}

// emitBits writes the low k bits of v (v has no bits at or above k; k <=
// 64) after the n pending bits of cur, appending the word they complete to
// buf. It is the batch encoder's bit writer, with the state passed by value
// so it stays in registers.
func emitBits(buf []byte, cur uint64, n uint, v uint64, k uint) ([]byte, uint64, uint) {
	cur |= v << n
	if n+k < 64 {
		return buf, cur, n + k
	}
	return binary.LittleEndian.AppendUint64(buf, cur), v >> (64 - n), n + k - 64
}

// nibbleRun returns the width (<= 64) bits of the nibble string ns starting
// at bit a.
func nibbleRun(ns *[4]uint64, a, width uint) uint64 {
	off, w := a&63, a>>6&3
	x := ns[w] >> off
	if off != 0 && w < 3 {
		x |= ns[w+1] << (64 - off)
	}
	if width < 64 {
		x &= 1<<width - 1
	}
	return x
}

// compactNibbles packs the nibbles of x, each holding a value below 2^w,
// into consecutive w-bit slots (w in 2..4), in order.
func compactNibbles(x uint64, w uint) uint64 {
	switch w {
	case 2:
		x = x&0x0303030303030303 | x>>2&0x0c0c0c0c0c0c0c0c
		x = x&0x000f000f000f000f | x>>4&0x00f000f000f000f0
		x = x&0x000000ff000000ff | x>>8&0x0000ff000000ff00
		x = x&0x000000000000ffff | x>>16&0x00000000ffff0000
	case 3:
		x = x&0x0707070707070707 | x>>1&0x3838383838383838
		x = x&0x003f003f003f003f | x>>2&0x0fc00fc00fc00fc0
		x = x&0x00000fff00000fff | x>>4&0x00fff00000fff000
		x = x&0x0000000000ffffff | x>>8&0x0000ffffff000000
	}
	return x
}

// zfpDecodeBlocks decodes the whole 1D payload behind r into out (length =
// stored count; the tail block's padding samples are decoded and discarded).
// It is the production decode path behind ZFP.DecodeInto.
func zfpDecodeBlocks(r *bitReader, tol float64, out []float64) error {
	cut := newPlaneCutoff(tol, 2)
	buf := r.buf
	pos, cur, n := r.pos, r.cur, r.n

	nOut := len(out)
	for i := 0; i < nOut; i += 4 {
		// Refill so the block header (1 + 12 + 6 bits) and the first plane
		// decode without further checks.
		if n <= 56 && pos+8 <= len(buf) {
			cur |= binary.LittleEndian.Uint64(buf[pos:]) << n
			k := (63 - n) >> 3
			pos += int(k)
			n += k * 8
		}
		// Block-boundary snapshot the scalar fallback rewinds to. The
		// refill above moved bytes into the register but consumed nothing,
		// so the snapshot's logical bit offset equals the block start.
		sPos, sCur, sN := pos, cur, n
		if n >= 19 {
			ok := true
			if cur&1 == 0 { // zero block: one bit, the smooth-delta fast path
				cur >>= 1
				n--
				end := i + 4
				if end > nOut {
					end = nOut
				}
				for j := i; j < end; j++ {
					out[j] = 0
				}
				continue
			}
			e := int(cur>>1&0xfff) - 2048
			maxPlane := int(cur >> 13 & 0x3f)
			cur >>= 19
			n -= 19
			minPlane := cut.minPlane(e)

			var u0, u1, u2, u3 uint64
			var acc uint64
			accPlanes := uint(0)
			s := uint(0) // significance prefix
			p := maxPlane
		planes:
			for p >= minPlane {
				if s == 1 {
					// DC-only batch mode: on smooth data most planes have
					// exactly one significant coefficient and no new
					// significance, i.e. they are [dc bit][group 0] pairs.
					// Scan the buffered word's odd (group) bits for the
					// next significance event and peel all the event-free
					// planes before it in one pass: their DC bits sit at
					// even positions and compactEven gathers them together.
					for {
						if n < 56 && pos+8 <= len(buf) {
							cur |= binary.LittleEndian.Uint64(buf[pos:]) << n
							k := (63 - n) >> 3
							pos += int(k)
							n += k * 8
						}
						avail := int(n >> 1)
						if rem := p - minPlane + 1; avail > rem {
							avail = rem
						}
						if avail == 0 {
							ok = false // tail: scalar finishes the block
							break planes
						}
						k := avail
						if w := cur & 0xaaaaaaaaaaaaaaaa; w != 0 {
							if t := bits.TrailingZeros64(w) >> 1; t < k {
								k = t
							}
						}
						if k > 0 {
							// Flush the partial accumulator so the lanes
							// can take direct appends, then append the k
							// DC bits (reversed: first peeled plane is the
							// most significant) and advance the AC lanes
							// by k zero planes.
							m := uint64(1)<<accPlanes - 1
							u0 = u0<<accPlanes | acc&m
							u1 = u1<<accPlanes | acc>>16&m
							u2 = u2<<accPlanes | acc>>32&m
							u3 = u3<<accPlanes | acc>>48&m
							acc, accPlanes = 0, 0
							kk := uint(k)
							dc := compactEven(cur & (1<<(2*kk) - 1))
							u0 = u0<<kk | bits.Reverse64(dc)>>(64-kk)
							u1 <<= kk
							u2 <<= kk
							u3 <<= kk
							cur >>= 2 * kk
							n -= 2 * kk
							p -= k
							if p < minPlane {
								break planes
							}
						}
						if k < avail {
							break // significance event at plane p: general path
						}
					}
				}
				// General single-plane path: a worst-case valid plane is 12
				// bits, so one refill covers it.
				if n < 14 {
					if n <= 56 && pos+8 <= len(buf) {
						cur |= binary.LittleEndian.Uint64(buf[pos:]) << n
						k := (63 - n) >> 3
						pos += int(k)
						n += k * 8
					} else {
						ok = false // stream tail: scalar finishes the block
						break
					}
				}
				// Raw prefix: already-significant coefficients emit plane
				// bits verbatim, then the group/run section.
				x := cur & (1<<s - 1)
				cur >>= s
				n -= s
				for s < 4 {
					g := cur & 1
					cur >>= 1
					n--
					if g == 0 {
						break
					}
					// Significance run: zeros up to the terminating one,
					// counted with one TrailingZeros64. A valid run fits
					// the refill guarantee; an empty buffered word means
					// corrupt or tail.
					if cur == 0 {
						ok = false
						break
					}
					tz := uint(bits.TrailingZeros64(cur))
					cur >>= tz + 1
					n -= tz + 1
					x |= 1 << (s + tz)
					s += tz + 1
				}
				if !ok || s > 4 {
					ok = false // corrupt prefix: scalar owns the semantics
					break
				}
				acc = acc<<1 | spread4[x&15]
				accPlanes++
				if accPlanes == 16 {
					u0 = u0<<16 | acc&0xffff
					u1 = u1<<16 | acc>>16&0xffff
					u2 = u2<<16 | acc>>32&0xffff
					u3 = u3<<16 | acc>>48&0xffff
					acc = 0
					accPlanes = 0
				}
				p--
				if s == 4 && p >= minPlane {
					// Every coefficient is significant: each remaining
					// plane is exactly 4 raw bits (the group loop is dead).
					// Drain them in unchecked nibble batches — as many as
					// the buffered word and the accumulator allow per trip.
					rem := p - minPlane + 1
					for rem > 0 {
						if n < 56 && pos+8 <= len(buf) {
							cur |= binary.LittleEndian.Uint64(buf[pos:]) << n
							k := (63 - n) >> 3
							pos += int(k)
							n += k * 8
						}
						b := int(n >> 2)
						if b > rem {
							b = rem
						}
						if c := int(16 - accPlanes); b > c {
							b = c
						}
						if b == 0 {
							ok = false // tail: scalar finishes the block
							break
						}
						rem -= b
						n -= uint(b) * 4
						for k := 0; k < b; k++ {
							acc = acc<<1 | spread4[cur&15]
							cur >>= 4
						}
						accPlanes += uint(b)
						if accPlanes == 16 {
							u0 = u0<<16 | acc&0xffff
							u1 = u1<<16 | acc>>16&0xffff
							u2 = u2<<16 | acc>>32&0xffff
							u3 = u3<<16 | acc>>48&0xffff
							acc = 0
							accPlanes = 0
						}
					}
					break
				}
			}
			if ok {
				m := uint64(1)<<accPlanes - 1
				u0 = u0<<accPlanes | acc&m
				u1 = u1<<accPlanes | acc>>16&m
				u2 = u2<<accPlanes | acc>>32&m
				u3 = u3<<accPlanes | acc>>48&m
				sh := uint(minPlane)
				c0 := fromNegabinary(u0 << sh)
				c1 := fromNegabinary(u1 << sh)
				c2 := fromNegabinary(u2 << sh)
				c3 := fromNegabinary(u3 << sh)
				a, b := invScale(e, 2)
				if i+4 <= nOut {
					o := (*[4]float64)(out[i : i+4])
					o[0] = float64(c0+c1+c2+c3) * a * b
					o[1] = float64(c0+c1-c2-c3) * a * b
					o[2] = float64(c0-c1-c2+c3) * a * b
					o[3] = float64(c0-c1+c2-c3) * a * b
				} else {
					blk := [4]float64{
						float64(c0+c1+c2+c3) * a * b,
						float64(c0+c1-c2-c3) * a * b,
						float64(c0-c1-c2+c3) * a * b,
						float64(c0-c1+c2-c3) * a * b,
					}
					copy(out[i:], blk[:])
				}
				if e > 1023 {
					clampFinite(out[i:min(i+4, nOut)])
				}
				continue
			}
		}
		// Fallback: rewind to the block boundary and let the scalar decoder
		// consume this one block (stream tail, or a corrupt shape whose
		// semantics the scalar path defines).
		r.pos, r.cur, r.n = sPos, sCur, sN
		f, err := decodeZFPBlock(r, tol)
		if err != nil {
			return err
		}
		pos, cur, n = r.pos, r.cur, r.n
		copy(out[i:], f[:])
	}
	r.pos, r.cur, r.n = pos, cur, n
	return nil
}

// zfp2dDecodeBlocks decodes the whole 4x4-tiled grid payload behind r into
// out (nx*ny row-major values), the production path behind ZFP2D.DecodeInto.
// Structure matches zfpDecodeBlocks with sixteen 4-bit accumulator lanes
// (flushed every 4 planes through the spread8 table) and the separable
// inverse transform from the scalar decoder.
func zfp2dDecodeBlocks(r *bitReader, tol float64, out []float64, nx, ny int) error {
	cut := newPlaneCutoff(tol, 3)
	buf := r.buf
	pos, cur, n := r.pos, r.cur, r.n

	var block [16]float64
	var u [16]uint64
	for by := 0; by < ny; by += 4 {
		for bx := 0; bx < nx; bx += 4 {
			if n <= 56 && pos+8 <= len(buf) {
				cur |= binary.LittleEndian.Uint64(buf[pos:]) << n
				k := (63 - n) >> 3
				pos += int(k)
				n += k * 8
			}
			sPos, sCur, sN := pos, cur, n
			if n >= 19 {
				ok := true
				if cur&1 == 0 {
					cur >>= 1
					n--
					for j := range block {
						block[j] = 0
					}
					scatter2DBlock(out, &block, nx, ny, bx, by)
					continue
				}
				e := int(cur>>1&0xfff) - 2048
				maxPlane := int(cur >> 13 & 0x3f)
				cur >>= 19
				n -= 19
				minPlane := cut.minPlane(e)

				for j := range u {
					u[j] = 0
				}
				var acc uint64
				accPlanes := uint(0)
				s := uint(0)
				for p := maxPlane; p >= minPlane; p-- {
					// A worst-case valid plane is raw + group bits + run
					// bits <= 33 bits; one word refill covers it. Near the
					// stream tail the word refill may be unavailable —
					// scalar finishes the block.
					if n < 34 {
						if n <= 56 && pos+8 <= len(buf) {
							cur |= binary.LittleEndian.Uint64(buf[pos:]) << n
							k := (63 - n) >> 3
							pos += int(k)
							n += k * 8
						} else {
							ok = false
							break
						}
					}
					x := cur & (1<<s - 1)
					cur >>= s
					n -= s
					for s < 16 {
						g := cur & 1
						cur >>= 1
						n--
						if g == 0 {
							break
						}
						if cur == 0 {
							ok = false
							break
						}
						tz := uint(bits.TrailingZeros64(cur))
						cur >>= tz + 1
						n -= tz + 1
						x |= 1 << (s + tz)
						s += tz + 1
					}
					if !ok || s > 16 {
						ok = false
						break
					}
					acc = acc<<1 | uint64(spread8[x&0xff]) | uint64(spread8[x>>8&0xff])<<32
					accPlanes++
					if accPlanes == 4 {
						for j := range u {
							u[j] = u[j]<<4 | acc>>(4*uint(j))&0xf
						}
						acc = 0
						accPlanes = 0
					}
					if s == 16 && p > minPlane {
						// All sixteen coefficients significant: remaining
						// planes are 16 raw bits each; drain in unchecked
						// batches (mirrors the 1D nibble mode).
						rem := p - minPlane
						for rem > 0 {
							if n < 56 && pos+8 <= len(buf) {
								cur |= binary.LittleEndian.Uint64(buf[pos:]) << n
								k := (63 - n) >> 3
								pos += int(k)
								n += k * 8
							}
							b := int(n >> 4)
							if b > rem {
								b = rem
							}
							if c := int(4 - accPlanes); b > c {
								b = c
							}
							if b == 0 {
								ok = false
								break
							}
							rem -= b
							n -= uint(b) * 16
							for k := 0; k < b; k++ {
								acc = acc<<1 | uint64(spread8[cur&0xff]) | uint64(spread8[cur>>8&0xff])<<32
								cur >>= 16
							}
							accPlanes += uint(b)
							if accPlanes == 4 {
								for j := range u {
									u[j] = u[j]<<4 | acc>>(4*uint(j))&0xf
								}
								acc = 0
								accPlanes = 0
							}
						}
						break
					}
				}
				if ok {
					m := uint64(1)<<accPlanes - 1
					sh := uint(minPlane)
					var q [16]int64
					for j := range u {
						q[zigzag16[j]] = fromNegabinary((u[j]<<accPlanes | acc>>(4*uint(j))&m) << sh)
					}
					// Inverse separable transform: columns, then rows (same
					// order as the scalar decoder).
					var col [4]int64
					for cidx := 0; cidx < 4; cidx++ {
						for row := 0; row < 4; row++ {
							col[row] = q[4*row+cidx]
						}
						invHadamard4(col[:])
						for row := 0; row < 4; row++ {
							q[4*row+cidx] = col[row]
						}
					}
					for row := 0; row < 4; row++ {
						invHadamard4(q[4*row : 4*row+4])
					}
					a, b := invScale(e, 4)
					for j := range block {
						block[j] = float64(q[j]) * a * b
					}
					if e > 1023 {
						clampFinite(block[:])
					}
					scatter2DBlock(out, &block, nx, ny, bx, by)
					continue
				}
			}
			r.pos, r.cur, r.n = sPos, sCur, sN
			if err := decodeZFP2DBlock(r, tol, &block); err != nil {
				return err
			}
			pos, cur, n = r.pos, r.cur, r.n
			scatter2DBlock(out, &block, nx, ny, bx, by)
		}
	}
	r.pos, r.cur, r.n = pos, cur, n
	return nil
}

// scatter2DBlock writes one decoded 4x4 block into the row-major grid,
// clipping edge blocks.
func scatter2DBlock(out []float64, block *[16]float64, nx, ny, bx, by int) {
	if bx+4 <= nx && by+4 <= ny {
		for j := 0; j < 4; j++ {
			copy(out[(by+j)*nx+bx:], block[j*4:j*4+4])
		}
		return
	}
	for j := 0; j < 4 && by+j < ny; j++ {
		for i := 0; i < 4 && bx+i < nx; i++ {
			out[(by+j)*nx+bx+i] = block[j*4+i]
		}
	}
}
