package mesh

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"repro/internal/compress"
	"repro/internal/engine"
)

// Binary layout, version 2 (little-endian) — what Encode writes:
//
//	magic   uint32  "CMSH" (0x48534d43)
//	version uint16  2
//	nVerts  uvarint
//	nTris   uvarint
//	planes  28 × { tag byte, length uvarint, length bytes }
//
// Planes 0–15 are coordinates, axis X then Y: plane k of an axis holds byte
// k of every vertex's IEEE-754 bits, nVerts bytes. Planes 16–27 are
// connectivity, corner 0 then 1 then 2: plane k of corner c holds byte k of
// zigzag(t[c] − the previous triangle's t[c]) as a uint32 (the first
// triangle deltas against 0), nTris bytes. A plane is stored raw (tag 0,
// length = its size) or as a DEFLATE stream (tag 1, length = the stream's
// size) that must inflate to exactly its size.
//
// The split is for the reader. Geometry is lossless — the recorded per-level
// error bounds assume the mesh the writer saw — so the only compressible
// structure is per byte position: sign, exponent and leading mantissa bytes
// repeat from vertex to vertex and the low mantissa bytes are noise.
// Splitting lets DEFLATE see the former alone and lets the latter be stored
// raw, which a decoder reads in place instead of dragging through a Huffman
// loop; and the 28 planes are independent, so a decoder inflates them
// concurrently. Per-corner deltas keep each corner's walk through the vertex
// ids separate. The decimator numbers every coarse level's vertices by
// their least input vertex and keeps its triangles in their input's order,
// so each corner's deltas stay as small as the input's; a caller's level 0
// gets whatever its own order gives.
//
// Version 1 — magic, version, counts, then nVerts × 2 raw float64 and
// nTris × 3 varint zig-zag deltas against the previous index — is what every
// archive written before version 2 holds (inside an outer DEFLATE applied by
// internal/core). Decode reads both; nothing writes version 1 any more.

const (
	meshMagic = 0x48534d43 // "CMSH"

	coordPlanes = 16 // 2 axes × 8 bytes
	connPlanes  = 12 // 3 corners × 4 bytes
	numPlanes   = coordPlanes + connPlanes

	planeRaw     = 0
	planeDeflate = 1

	// maxInflateRatio is DEFLATE's ceiling: a 258-byte match costs at
	// least 2 bits. No stream inflates to more than this many times its
	// size, which bounds what a forged count can make Decode allocate.
	maxInflateRatio = 1032
)

// AppendEncode appends the binary encoding of m to dst and returns the
// extended slice. The output is a function of m alone.
func AppendEncode(dst []byte, m *Mesh) []byte {
	var hdr [6]byte
	binary.LittleEndian.PutUint32(hdr[0:4], meshMagic)
	binary.LittleEndian.PutUint16(hdr[4:6], 2)
	dst = append(dst, hdr[:]...)
	nv, nt := len(m.Verts), len(m.Tris)
	dst = binary.AppendUvarint(dst, uint64(nv))
	dst = binary.AppendUvarint(dst, uint64(nt))

	// One value's planes are split in a single pass over the mesh, then
	// tried one at a time against a DEFLATE scratch buffer.
	split := make([]byte, max(8*nv, 4*nt))
	var trial []byte
	for axis := 0; axis < 2; axis++ {
		for i, v := range m.Verts {
			c := v.X
			if axis == 1 {
				c = v.Y
			}
			b := math.Float64bits(c)
			for k := 0; k < 8; k++ {
				split[k*nv+i] = byte(b >> (8 * k))
			}
		}
		for k := 0; k < 8; k++ {
			dst, trial = appendPlane(dst, split[k*nv:(k+1)*nv], trial)
		}
	}
	for c := 0; c < 3; c++ {
		prev := int32(0)
		for i, t := range m.Tris {
			d := t[c] - prev
			prev = t[c]
			z := uint32(d<<1) ^ uint32(d>>31)
			for k := 0; k < 4; k++ {
				split[k*nt+i] = byte(z >> (8 * k))
			}
		}
		for k := 0; k < 4; k++ {
			dst, trial = appendPlane(dst, split[k*nt:(k+1)*nt], trial)
		}
	}
	return dst
}

// appendPlane appends one plane record, keeping the DEFLATE form only when
// it saves at least 1/16 of the plane: below that the reader's inflate costs
// more than the bytes are worth. trial is scratch, returned for reuse.
func appendPlane(dst, plane, trial []byte) (out, scratch []byte) {
	tag, body := byte(planeRaw), plane
	if len(plane) > 0 {
		var err error
		trial, err = compress.DeflateAppend(trial[:0], plane)
		if err == nil && len(trial) <= len(plane)-len(plane)/16 {
			tag, body = planeDeflate, trial
		}
	}
	dst = append(dst, tag)
	dst = binary.AppendUvarint(dst, uint64(len(body)))
	return append(dst, body...), trial
}

// Encode returns the binary encoding of m.
func Encode(m *Mesh) []byte {
	// Size hint: what the planes come to when none of them compresses.
	return AppendEncode(make([]byte, 0, 64+16*len(m.Verts)+12*len(m.Tris)), m)
}

var errTruncated = errors.New("mesh: truncated encoding")

// Decode parses a mesh from data produced by Encode (either format version).
// It returns the mesh and the number of bytes consumed.
func Decode(data []byte) (*Mesh, int, error) {
	return DecodeOn(context.Background(), nil, data)
}

// DecodeOn is Decode with the independent parts of a version-2 encoding —
// inflating each plane, then rebuilding each axis and each corner — run on
// pool (nil means serially). The result does not depend on the pool.
func DecodeOn(ctx context.Context, pool *engine.Pool, data []byte) (*Mesh, int, error) {
	if len(data) < 6 {
		return nil, 0, errTruncated
	}
	if binary.LittleEndian.Uint32(data[0:4]) != meshMagic {
		return nil, 0, errors.New("mesh: bad magic")
	}
	version := binary.LittleEndian.Uint16(data[4:6])
	if version != 1 && version != 2 {
		return nil, 0, fmt.Errorf("mesh: unsupported version %d", version)
	}
	off := 6
	nVerts, n := binary.Uvarint(data[off:])
	if n <= 0 {
		return nil, 0, errTruncated
	}
	off += n
	nTris, n := binary.Uvarint(data[off:])
	if n <= 0 {
		return nil, 0, errTruncated
	}
	off += n
	if version == 1 {
		return decodeV1(data, off, nVerts, nTris)
	}
	return decodeV2(ctx, pool, data, off, nVerts, nTris)
}

func decodeV1(data []byte, off int, nVerts, nTris uint64) (*Mesh, int, error) {
	if nVerts > uint64(len(data)) || nTris > uint64(len(data)) {
		return nil, 0, fmt.Errorf("mesh: implausible sizes nVerts=%d nTris=%d for %d bytes", nVerts, nTris, len(data))
	}
	m := &Mesh{
		Verts: make([]Vertex, nVerts),
		Tris:  make([]Triangle, nTris),
	}
	need := int(nVerts) * 16
	if len(data)-off < need {
		return nil, 0, errTruncated
	}
	for i := range m.Verts {
		m.Verts[i].X = math.Float64frombits(binary.LittleEndian.Uint64(data[off:]))
		off += 8
		m.Verts[i].Y = math.Float64frombits(binary.LittleEndian.Uint64(data[off:]))
		off += 8
	}
	prev := int64(0)
	for i := range m.Tris {
		for k := 0; k < 3; k++ {
			d, n := binary.Varint(data[off:])
			if n <= 0 {
				return nil, 0, errTruncated
			}
			off += n
			idx := prev + d
			if idx < 0 || idx >= int64(nVerts) {
				return nil, 0, fmt.Errorf("mesh: triangle %d index %d out of range", i, idx)
			}
			m.Tris[i][k] = int32(idx)
			prev = idx
		}
	}
	return m, off, nil
}

// serial runs units in the calling goroutine, for callers without a pool.
var serial = engine.NewPool(1)

func decodeV2(ctx context.Context, pool *engine.Pool, data []byte, off int, nVerts, nTris uint64) (*Mesh, int, error) {
	if nVerts > math.MaxInt32 || nTris > math.MaxInt32 {
		return nil, 0, fmt.Errorf("mesh: implausible sizes nVerts=%d nTris=%d", nVerts, nTris)
	}
	if pool == nil {
		pool = serial
	}
	nv, nt := int(nVerts), int(nTris)

	// Walk the plane records before allocating anything: every plane must
	// be able to hold its share of the counts the header claims, so a
	// forged header cannot demand more than maxInflateRatio times the
	// payload.
	planeSize := func(p int) int {
		if p < coordPlanes {
			return nv
		}
		return nt
	}
	var stored [numPlanes][]byte
	var deflated [numPlanes]bool
	inflate := 0
	for p := range stored {
		size := planeSize(p)
		if off >= len(data) {
			return nil, 0, errTruncated
		}
		tag := data[off]
		off++
		length, n := binary.Uvarint(data[off:])
		if n <= 0 {
			return nil, 0, errTruncated
		}
		off += n
		if length > uint64(len(data)-off) {
			return nil, 0, errTruncated
		}
		switch tag {
		case planeRaw:
			if length != uint64(size) {
				return nil, 0, fmt.Errorf("mesh: plane %d holds %d bytes, want %d", p, length, size)
			}
		case planeDeflate:
			if uint64(size) > maxInflateRatio*length {
				return nil, 0, fmt.Errorf("mesh: plane %d cannot inflate %d bytes to %d", p, length, size)
			}
			deflated[p] = true
			inflate += size
		default:
			return nil, 0, fmt.Errorf("mesh: plane %d has unknown tag %d", p, tag)
		}
		stored[p] = data[off : off+int(length)]
		off += int(length)
	}

	// Raw planes are read where they lie; the deflated ones inflate side by
	// side into one buffer.
	planes := stored
	buf := make([]byte, inflate)
	var units []engine.Unit
	for p := range planes {
		if !deflated[p] {
			continue
		}
		size := planeSize(p)
		planes[p], buf = buf[:size:size], buf[size:]
		units = append(units, func(context.Context) error {
			if err := compress.InflateInto(planes[p], stored[p]); err != nil {
				return fmt.Errorf("mesh: plane %d: %w", p, err)
			}
			return nil
		})
	}
	if err := pool.Run(ctx, units...); err != nil {
		return nil, 0, err
	}

	m := &Mesh{
		Verts: make([]Vertex, nv),
		Tris:  make([]Triangle, nt),
	}
	err := pool.Run(ctx,
		func(context.Context) error { joinAxis(m.Verts, 0, planes[0:8]); return nil },
		func(context.Context) error { joinAxis(m.Verts, 1, planes[8:16]); return nil },
		func(context.Context) error { return joinCorner(m.Tris, 0, planes[16:20], nv) },
		func(context.Context) error { return joinCorner(m.Tris, 1, planes[20:24], nv) },
		func(context.Context) error { return joinCorner(m.Tris, 2, planes[24:28], nv) },
	)
	if err != nil {
		return nil, 0, err
	}
	return m, off, nil
}

// joinAxis reassembles one coordinate of every vertex from its 8 byte
// planes.
func joinAxis(verts []Vertex, axis int, p [][]byte) {
	n := len(verts)
	p0, p1, p2, p3 := p[0][:n], p[1][:n], p[2][:n], p[3][:n]
	p4, p5, p6, p7 := p[4][:n], p[5][:n], p[6][:n], p[7][:n]
	for i := range verts {
		c := math.Float64frombits(uint64(p0[i]) | uint64(p1[i])<<8 | uint64(p2[i])<<16 | uint64(p3[i])<<24 |
			uint64(p4[i])<<32 | uint64(p5[i])<<40 | uint64(p6[i])<<48 | uint64(p7[i])<<56)
		if axis == 0 {
			verts[i].X = c
		} else {
			verts[i].Y = c
		}
	}
}

// joinCorner reassembles one corner of every triangle from its 4 byte
// planes: un-zigzag, prefix-sum, and range-check each index.
func joinCorner(tris []Triangle, c int, p [][]byte, nVerts int) error {
	n := len(tris)
	p0, p1, p2, p3 := p[0][:n], p[1][:n], p[2][:n], p[3][:n]
	prev := int32(0)
	for i := range tris {
		z := uint32(p0[i]) | uint32(p1[i])<<8 | uint32(p2[i])<<16 | uint32(p3[i])<<24
		prev += int32(z>>1) ^ -int32(z&1)
		if uint32(prev) >= uint32(nVerts) {
			return fmt.Errorf("mesh: triangle %d index %d out of range", i, prev)
		}
		tris[i][c] = prev
	}
	return nil
}
