package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/mesh"
)

// Spatial chunking of delta payloads.
//
// §III-E of the paper points out that a cheap low-accuracy pass can "guide
// subsequent, higher fidelity data explorations, and facilitate focused
// data retrieval, e.g., reading smaller subsets of high accuracy data". To
// make that subset read cheap at the storage level, Canopus can split each
// delta into spatial tiles: a fine vertex belongs to the tile containing
// its position, and each tile becomes its own selectively-readable BP
// variable. Regional retrieval then fetches only the tiles that intersect
// the region of interest (see region.go).

// maxChunks bounds the tiles per axis a writer produces and a reader
// believes: a full-level read enumerates n*n tiles, so a forged frame must
// not size that list.
const maxChunks = 64

// tileBox is the tiling frame: the fine mesh's bounding box at write time,
// recorded in container metadata so readers assign vertices to the same
// tiles the writer did.
type tileBox struct {
	minX, minY, w, h float64
	n                int // tiles per axis
}

func newTileBox(m *mesh.Mesh, n int) tileBox {
	minX, minY, maxX, maxY := m.Bounds()
	w, h := maxX-minX, maxY-minY
	if w <= 0 {
		w = 1
	}
	if h <= 0 {
		h = 1
	}
	return tileBox{minX: minX, minY: minY, w: w, h: h, n: n}
}

// tileOf returns the tile index of a point.
func (tb tileBox) tileOf(x, y float64) int {
	tx := int(float64(tb.n) * (x - tb.minX) / tb.w)
	ty := int(float64(tb.n) * (y - tb.minY) / tb.h)
	if tx < 0 {
		tx = 0
	}
	if tx >= tb.n {
		tx = tb.n - 1
	}
	if ty < 0 {
		ty = 0
	}
	if ty >= tb.n {
		ty = tb.n - 1
	}
	return ty*tb.n + tx
}

// encode serializes the tiling frame for container metadata.
func (tb tileBox) encode() string {
	return fmt.Sprintf("%s,%s,%s,%s,%d",
		strconv.FormatFloat(tb.minX, 'g', -1, 64),
		strconv.FormatFloat(tb.minY, 'g', -1, 64),
		strconv.FormatFloat(tb.w, 'g', -1, 64),
		strconv.FormatFloat(tb.h, 'g', -1, 64),
		tb.n)
}

func parseTileBox(s string) (tileBox, error) {
	parts := strings.Split(s, ",")
	if len(parts) != 5 {
		return tileBox{}, fmt.Errorf("canopus: malformed tile frame %q", s)
	}
	var tb tileBox
	var err error
	if tb.minX, err = strconv.ParseFloat(parts[0], 64); err != nil {
		return tileBox{}, fmt.Errorf("canopus: malformed tile frame %q", s)
	}
	if tb.minY, err = strconv.ParseFloat(parts[1], 64); err != nil {
		return tileBox{}, fmt.Errorf("canopus: malformed tile frame %q", s)
	}
	if tb.w, err = strconv.ParseFloat(parts[2], 64); err != nil {
		return tileBox{}, fmt.Errorf("canopus: malformed tile frame %q", s)
	}
	if tb.h, err = strconv.ParseFloat(parts[3], 64); err != nil {
		return tileBox{}, fmt.Errorf("canopus: malformed tile frame %q", s)
	}
	if tb.n, err = strconv.Atoi(parts[4]); err != nil || tb.n < 1 || tb.n > maxChunks {
		return tileBox{}, fmt.Errorf("canopus: malformed tile frame %q", s)
	}
	return tb, nil
}

// partitionVerts groups vertex ids by tile. Ids within a tile stay in
// ascending order. Empty tiles yield nil slices.
func partitionVerts(m *mesh.Mesh, tb tileBox) [][]int32 {
	tiles := make([][]int32, tb.n*tb.n)
	for vi, v := range m.Verts {
		t := tb.tileOf(v.X, v.Y)
		tiles[t] = append(tiles[t], int32(vi))
	}
	return tiles
}

// Chunk payload layout: the covered vertex ids as run-length coded ranges,
// followed by the codec-compressed values in id order. Level 0 is numbered
// by the caller and every coarser level in its input's order (the decimator
// numbers a coarse vertex by the least input vertex it stands for), so on a
// mesh numbered row by row a tile's ids fall into about one run per row it
// crosses: 810 runs for level 1's 10,560 vertices on the XGC1 plane in 8x8
// tiles, against 814 for level 0's 21,120.
//
//	uvarint nRuns
//	nRuns x (varint startDelta, uvarint runLength)
//	uvarint encLen
//	enc bytes

// chunkHeader encodes the id part of a chunk payload — the run count and
// the runs of a sorted id list. It depends only on the tile's vertex ids, so
// a campaign writer encodes it once per tile for every step.
func chunkHeader(ids []int32) []byte {
	var body []byte
	nRuns := 0
	prev := int64(0)
	for i := 0; i < len(ids); {
		start := int64(ids[i])
		n := 1
		for i+n < len(ids) && int64(ids[i+n]) == start+int64(n) {
			n++
		}
		body = binary.AppendVarint(body, start-prev)
		body = binary.AppendUvarint(body, uint64(n))
		prev = start
		nRuns++
		i += n
	}
	out := binary.AppendUvarint(make([]byte, 0, binary.MaxVarintLen64+len(body)), uint64(nRuns))
	return append(out, body...)
}

// chunkPayload joins a tile's chunkHeader and its codec-encoded values into
// the stored chunk payload.
func chunkPayload(header, enc []byte) []byte {
	out := make([]byte, 0, len(header)+binary.MaxVarintLen64+len(enc))
	out = append(out, header...)
	out = binary.AppendUvarint(out, uint64(len(enc)))
	return append(out, enc...)
}

// gatherTile copies vals at a tile's ids, in id order, into buf — grown only
// when the tile is larger than any before it — and returns the filled
// prefix. A compress unit passes one buffer through all its tiles; the codec
// encodes from it and keeps no reference.
func gatherTile(buf, vals []float64, ids []int32) []float64 {
	buf = slices.Grow(buf[:0], len(ids))[:len(ids)]
	for j, id := range ids {
		buf[j] = vals[id]
	}
	return buf
}

var errChunkTrunc = errors.New("canopus: truncated delta chunk")

// idRun is one decoded (start, length) run of a chunk payload's vertex ids.
type idRun struct{ start, n int64 }

// parseChunkPayload validates a chunk payload and decodes its id runs into
// runs[:0], returning them with the number of ids they cover and the
// codec-encoded value bytes. The runs are decoded once, here: the read path
// scatters through them without re-walking the varints, and callers pool
// the runs buffer so steady-state reads never materialize an id list.
func parseChunkPayload(data []byte, runs []idRun) ([]idRun, int, []byte, error) {
	runs = runs[:0]
	nRuns, off := binary.Uvarint(data)
	if off <= 0 {
		return runs, 0, nil, errChunkTrunc
	}
	// Every run takes at least two bytes, so a larger count cannot parse;
	// refusing it here keeps the pre-grown runs within the payload's size.
	if nRuns > uint64(len(data)-off)/2 {
		return runs, 0, nil, fmt.Errorf("canopus: implausible chunk run count %d", nRuns)
	}
	runs = slices.Grow(runs, int(nRuns))
	prev := int64(0)
	// Cap the total decoded ids against what the value payload could
	// plausibly cover; otherwise a corrupt run list is a memory DoS.
	maxIDs := uint64(len(data))*8 + 64
	var total uint64
	for i := uint64(0); i < nRuns; i++ {
		var d int64
		var length uint64
		switch {
		case off+1 < len(data) && data[off]|data[off+1] < 0x80:
			// Both varints are one byte: a run starting within 63 ids of
			// the last. Decode the zigzag delta and the length inline.
			// This case must come first, because the next one takes
			// data[off] for the first byte of a two-byte varint.
			b := data[off]
			d = int64(b>>1) ^ -int64(b&1)
			length = uint64(data[off+1])
			off += 2
		case off+2 < len(data) && data[off+1]|data[off+2] < 0x80:
			// A two-byte start delta and a one-byte length. On an 8x8
			// tiling of the XGC1 plane this is 789 of level 0's 814 runs
			// and 803 of level 1's 810: every level is in its input's
			// order, so a tile's runs are its rows, a row apart.
			u := uint64(data[off]&0x7f) | uint64(data[off+1])<<7
			d = int64(u>>1) ^ -int64(u&1)
			length = uint64(data[off+2])
			off += 3
		default:
			var n int
			if d, n = binary.Varint(data[off:]); n <= 0 {
				return runs, 0, nil, errChunkTrunc
			}
			off += n
			if length, n = binary.Uvarint(data[off:]); n <= 0 {
				return runs, 0, nil, errChunkTrunc
			}
			off += n
		}
		start := prev + d
		total += length
		if start < 0 || total > maxIDs {
			return runs, 0, nil, fmt.Errorf("canopus: invalid chunk run (%d, %d)", start, length)
		}
		runs = append(runs, idRun{start, int64(length)})
		prev = start
	}
	encLen, n := binary.Uvarint(data[off:])
	if n <= 0 {
		return runs, 0, nil, errChunkTrunc
	}
	off += n
	if uint64(len(data)-off) < encLen {
		return runs, 0, nil, errChunkTrunc
	}
	return runs, int(total), data[off : off+int(encLen)], nil
}

// scatterRuns copies vals, in id order, to the ids the runs cover in out and
// marks those ids in have when it is non-nil. vals must hold exactly as many
// values as the runs cover. It stops at the first run that does not fit in
// out and returns that run's last id and false.
func scatterRuns(runs []idRun, vals, out []float64, have []bool) (int64, bool) {
	j := 0
	for _, r := range runs {
		if r.start > int64(len(out))-r.n {
			return r.start + r.n - 1, false
		}
		s, e := int(r.start), int(r.start+r.n)
		copy(out[s:e], vals[j:])
		j += int(r.n)
		if have != nil {
			for k := s; k < e; k++ {
				have[k] = true
			}
		}
	}
	return 0, true
}

// chunkVarNames caches the "delta.c<i>" variable names: retrieval paths
// rebuild the name of every needed tile on every call, and the Sprintf per
// tile was a measurable slice of the read path's allocations. The cache
// grows monotonically to the largest tile count seen.
var chunkVarNames atomic.Pointer[[]string]

var chunkVarNamesMu sync.Mutex

func chunkVarName(ci int) string {
	if names := chunkVarNames.Load(); names != nil && ci < len(*names) {
		return (*names)[ci]
	}
	chunkVarNamesMu.Lock()
	defer chunkVarNamesMu.Unlock()
	names := chunkVarNames.Load()
	if names != nil && ci < len(*names) {
		return (*names)[ci]
	}
	n := ci + 1
	if names != nil && 2*len(*names) > n {
		n = 2 * len(*names)
	}
	grown := make([]string, n)
	if names != nil {
		copy(grown, *names)
	}
	for i := range grown {
		if grown[i] == "" {
			grown[i] = fmt.Sprintf("delta.c%d", i)
		}
	}
	chunkVarNames.Store(&grown)
	return grown[ci]
}
