// Package bp implements a metadata-rich binary-packed container modeled on
// the ADIOS BP format the paper builds Canopus into (§III-E1): named
// variables with attributes are written back-to-back as payload blocks, and
// a metadata index at the end of the file records each variable's location
// and shape. Readers parse the index from the footer and then fetch only
// the byte extents of the variables they need — the "selective retrieval"
// that lets Canopus pull a base dataset without touching the deltas stored
// beside it.
//
// Layout:
//
//	header:  magic "CBP1" (4) | version (2)
//	payload: variable blocks, back-to-back
//	index:   file attrs, then per-variable records
//	footer:  index offset (8) | index length (8) | magic "CBP1" (4)
package bp

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
)

// DataType tags a variable's element type.
type DataType uint8

// Supported element types.
const (
	TypeBytes DataType = iota
	TypeFloat64
)

func (t DataType) String() string {
	switch t {
	case TypeBytes:
		return "bytes"
	case TypeFloat64:
		return "float64"
	default:
		return fmt.Sprintf("DataType(%d)", uint8(t))
	}
}

// VarInfo describes one variable: the unit of selective retrieval. Level
// carries the Canopus accuracy level the block belongs to (ADIOS exposes it
// through the inquiry API as adios_inq_var(..., level)).
type VarInfo struct {
	Name   string
	Level  int
	Type   DataType
	Count  int64 // element count (floats) or byte length
	Offset int64 // payload offset within the container
	Size   int64 // payload byte length
	Attrs  map[string]string
}

const (
	bpMagic   = 0x31504243 // "CBP1"
	bpVersion = 1
	footerLen = 8 + 8 + 4
)

// Writer builds a container in memory.
type Writer struct {
	payload bytes.Buffer
	vars    []VarInfo
	attrs   map[string]string
	seen    map[varID]bool
}

// varID names a variable inside a writer's duplicate check; a struct key
// costs no per-variable string formatting.
type varID struct {
	name  string
	level int
}

// NewWriter returns an empty container writer.
func NewWriter() *Writer {
	return &Writer{attrs: map[string]string{}, seen: map[varID]bool{}}
}

// SetAttr sets a file-level attribute.
func (w *Writer) SetAttr(key, value string) { w.attrs[key] = value }

func varKey(name string, level int) string { return fmt.Sprintf("%s@%d", name, level) }

// PutBytes appends a raw byte variable. Variable (name, level) pairs must be
// unique within a container.
func (w *Writer) PutBytes(name string, level int, data []byte, attrs map[string]string) error {
	return w.put(name, level, TypeBytes, int64(len(data)), data, attrs)
}

// PutFloats appends a float64 variable, stored little-endian.
func (w *Writer) PutFloats(name string, level int, vals []float64, attrs map[string]string) error {
	raw := make([]byte, 8*len(vals))
	for i, v := range vals {
		binary.LittleEndian.PutUint64(raw[8*i:], math.Float64bits(v))
	}
	return w.put(name, level, TypeFloat64, int64(len(vals)), raw, attrs)
}

func (w *Writer) put(name string, level int, t DataType, count int64, raw []byte, attrs map[string]string) error {
	if name == "" {
		return errors.New("bp: empty variable name")
	}
	key := varID{name, level}
	if w.seen[key] {
		return fmt.Errorf("bp: duplicate variable %s level %d", name, level)
	}
	w.seen[key] = true
	cp := map[string]string{}
	for k, v := range attrs {
		cp[k] = v
	}
	w.vars = append(w.vars, VarInfo{
		Name:   name,
		Level:  level,
		Type:   t,
		Count:  count,
		Offset: 6 + int64(w.payload.Len()),
		Size:   int64(len(raw)),
		Attrs:  cp,
	})
	w.payload.Write(raw)
	return nil
}

// Bytes finalizes and returns the container.
func (w *Writer) Bytes() []byte {
	var out bytes.Buffer
	hdr := make([]byte, 6)
	binary.LittleEndian.PutUint32(hdr[0:4], bpMagic)
	binary.LittleEndian.PutUint16(hdr[4:6], bpVersion)
	out.Write(hdr)
	out.Write(w.payload.Bytes())

	idxOffset := int64(out.Len())
	idx := encodeIndex(w.attrs, w.vars)
	out.Write(idx)

	footer := make([]byte, footerLen)
	binary.LittleEndian.PutUint64(footer[0:8], uint64(idxOffset))
	binary.LittleEndian.PutUint64(footer[8:16], uint64(len(idx)))
	binary.LittleEndian.PutUint32(footer[16:20], bpMagic)
	out.Write(footer)
	return out.Bytes()
}

func appendString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

func encodeIndex(attrs map[string]string, vars []VarInfo) []byte {
	var idx []byte
	keys := make([]string, 0, len(attrs))
	for k := range attrs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	idx = binary.AppendUvarint(idx, uint64(len(keys)))
	for _, k := range keys {
		idx = appendString(idx, k)
		idx = appendString(idx, attrs[k])
	}
	idx = binary.AppendUvarint(idx, uint64(len(vars)))
	for _, v := range vars {
		idx = appendString(idx, v.Name)
		idx = binary.AppendVarint(idx, int64(v.Level))
		idx = append(idx, byte(v.Type))
		idx = binary.AppendUvarint(idx, uint64(v.Count))
		idx = binary.AppendUvarint(idx, uint64(v.Offset))
		idx = binary.AppendUvarint(idx, uint64(v.Size))
		akeys := make([]string, 0, len(v.Attrs))
		for k := range v.Attrs {
			akeys = append(akeys, k)
		}
		sort.Strings(akeys)
		idx = binary.AppendUvarint(idx, uint64(len(akeys)))
		for _, k := range akeys {
			idx = appendString(idx, k)
			idx = appendString(idx, v.Attrs[k])
		}
	}
	return idx
}

// Reader provides indexed access to a container. Payload bytes are fetched
// on demand through an io.ReaderAt, so opening a reader costs only the
// footer and index — the BP property Canopus relies on for cheap metadata
// queries across tiers.
type Reader struct {
	ra    io.ReaderAt
	size  int64
	attrs map[string]string
	vars  []VarInfo
	byKey map[string]int
}

// Open parses the index of a container held in an io.ReaderAt.
func Open(ra io.ReaderAt, size int64) (*Reader, error) {
	if size < 6+footerLen {
		return nil, errors.New("bp: container too small")
	}
	var hdr [6]byte
	if _, err := ra.ReadAt(hdr[:], 0); err != nil {
		return nil, fmt.Errorf("bp: read header: %w", err)
	}
	if binary.LittleEndian.Uint32(hdr[0:4]) != bpMagic {
		return nil, errors.New("bp: bad magic")
	}
	if v := binary.LittleEndian.Uint16(hdr[4:6]); v != bpVersion {
		return nil, fmt.Errorf("bp: unsupported version %d", v)
	}
	var footer [footerLen]byte
	if _, err := ra.ReadAt(footer[:], size-footerLen); err != nil {
		return nil, fmt.Errorf("bp: read footer: %w", err)
	}
	if binary.LittleEndian.Uint32(footer[16:20]) != bpMagic {
		return nil, errors.New("bp: bad footer magic")
	}
	idxOff := int64(binary.LittleEndian.Uint64(footer[0:8]))
	idxLen := int64(binary.LittleEndian.Uint64(footer[8:16]))
	if idxOff < 6 || idxLen < 0 || idxOff+idxLen != size-footerLen {
		return nil, errors.New("bp: corrupt index extent")
	}
	idx := make([]byte, idxLen)
	if _, err := ra.ReadAt(idx, idxOff); err != nil {
		return nil, fmt.Errorf("bp: read index: %w", err)
	}
	r := &Reader{ra: ra, size: size, byKey: map[string]int{}}
	if err := r.parseIndex(idx); err != nil {
		return nil, err
	}
	return r, nil
}

// OpenBytes opens a container held fully in memory.
func OpenBytes(data []byte) (*Reader, error) {
	return Open(bytes.NewReader(data), int64(len(data)))
}

var errBadIndex = errors.New("bp: corrupt index")

type indexCursor struct {
	data []byte
	pos  int
}

func (c *indexCursor) uvarint() (uint64, error) {
	v, n := binary.Uvarint(c.data[c.pos:])
	if n <= 0 {
		return 0, errBadIndex
	}
	c.pos += n
	return v, nil
}

func (c *indexCursor) varint() (int64, error) {
	v, n := binary.Varint(c.data[c.pos:])
	if n <= 0 {
		return 0, errBadIndex
	}
	c.pos += n
	return v, nil
}

func (c *indexCursor) str() (string, error) {
	n, err := c.uvarint()
	if err != nil {
		return "", err
	}
	if n > uint64(len(c.data)-c.pos) {
		return "", errBadIndex
	}
	s := string(c.data[c.pos : c.pos+int(n)])
	c.pos += int(n)
	return s, nil
}

func (c *indexCursor) byteVal() (byte, error) {
	if c.pos >= len(c.data) {
		return 0, errBadIndex
	}
	b := c.data[c.pos]
	c.pos++
	return b, nil
}

// maxCount bounds an element count against the bytes that could possibly
// encode that many elements (each needs at least minBytes). Without it, a
// corrupt count makes the pre-sized allocations below an easy memory DoS.
func (c *indexCursor) maxCount(n uint64, minBytes int) error {
	if n > uint64(len(c.data)-c.pos)/uint64(minBytes)+1 {
		return errBadIndex
	}
	return nil
}

func (r *Reader) parseIndex(idx []byte) error {
	c := &indexCursor{data: idx}
	nattrs, err := c.uvarint()
	if err != nil {
		return err
	}
	if err := c.maxCount(nattrs, 2); err != nil {
		return err
	}
	r.attrs = make(map[string]string, nattrs)
	for i := uint64(0); i < nattrs; i++ {
		k, err := c.str()
		if err != nil {
			return err
		}
		v, err := c.str()
		if err != nil {
			return err
		}
		r.attrs[k] = v
	}
	nvars, err := c.uvarint()
	if err != nil {
		return err
	}
	if err := c.maxCount(nvars, 6); err != nil {
		return err
	}
	for i := uint64(0); i < nvars; i++ {
		var v VarInfo
		if v.Name, err = c.str(); err != nil {
			return err
		}
		lvl, err := c.varint()
		if err != nil {
			return err
		}
		v.Level = int(lvl)
		tb, err := c.byteVal()
		if err != nil {
			return err
		}
		v.Type = DataType(tb)
		cnt, err := c.uvarint()
		if err != nil {
			return err
		}
		v.Count = int64(cnt)
		off, err := c.uvarint()
		if err != nil {
			return err
		}
		v.Offset = int64(off)
		sz, err := c.uvarint()
		if err != nil {
			return err
		}
		v.Size = int64(sz)
		if v.Offset < 6 || v.Offset+v.Size > r.size {
			return fmt.Errorf("bp: variable %s extent [%d,%d) out of bounds", v.Name, v.Offset, v.Offset+v.Size)
		}
		na, err := c.uvarint()
		if err != nil {
			return err
		}
		if err := c.maxCount(na, 2); err != nil {
			return err
		}
		v.Attrs = make(map[string]string, na)
		for j := uint64(0); j < na; j++ {
			k, err := c.str()
			if err != nil {
				return err
			}
			val, err := c.str()
			if err != nil {
				return err
			}
			v.Attrs[k] = val
		}
		r.byKey[varKey(v.Name, v.Level)] = len(r.vars)
		r.vars = append(r.vars, v)
	}
	return nil
}

// Attr returns a file-level attribute.
func (r *Reader) Attr(key string) (string, bool) {
	v, ok := r.attrs[key]
	return v, ok
}

// AttrKeys lists the file-level attribute keys in sorted order.
func (r *Reader) AttrKeys() []string {
	keys := make([]string, 0, len(r.attrs))
	for k := range r.attrs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// Vars lists all variables in write order.
func (r *Reader) Vars() []VarInfo { return append([]VarInfo(nil), r.vars...) }

// Inq looks up a variable by name and level — the ADIOS adios_inq_var
// analogue. It touches only the in-memory index and allocates nothing: the
// key is assembled on the stack and the map lookup goes through the
// compiler's string(bytes) fast path. Retrieval paths call Inq once per
// delta tile, so this must stay off the heap.
func (r *Reader) Inq(name string, level int) (VarInfo, bool) {
	var a [64]byte
	key := append(a[:0], name...)
	key = append(key, '@')
	key = strconv.AppendInt(key, int64(level), 10)
	i, ok := r.byKey[string(key)]
	if !ok {
		return VarInfo{}, false
	}
	return r.vars[i], true
}

// WithReaderAt returns a reader that shares this reader's parsed index but
// fetches payloads through ra. It is the re-open fast path: a container's
// index is parsed once, then every subsequent open of the unchanged
// container binds the cached index to a fresh cost-tracking ReaderAt
// without touching storage. size must match the size the index was parsed
// against — a mismatch means the container was rewritten and the index is
// stale.
func (r *Reader) WithReaderAt(ra io.ReaderAt, size int64) (*Reader, error) {
	if size != r.size {
		return nil, fmt.Errorf("bp: cached index is for a %d-byte container, have %d bytes", r.size, size)
	}
	return &Reader{ra: ra, size: size, attrs: r.attrs, vars: r.vars, byKey: r.byKey}, nil
}

// ReadBytes fetches a variable's raw payload (the selective read).
func (r *Reader) ReadBytes(v VarInfo) ([]byte, error) {
	buf := make([]byte, v.Size)
	if _, err := r.ra.ReadAt(buf, v.Offset); err != nil {
		return nil, fmt.Errorf("bp: read %s: %w", v.Name, err)
	}
	return buf, nil
}

// ReadFloats fetches and decodes a float64 variable.
func (r *Reader) ReadFloats(v VarInfo) ([]float64, error) {
	if v.Type != TypeFloat64 {
		return nil, fmt.Errorf("bp: variable %s has type %s, not float64", v.Name, v.Type)
	}
	raw, err := r.ReadBytes(v)
	if err != nil {
		return nil, err
	}
	if int64(len(raw)) != 8*v.Count {
		return nil, fmt.Errorf("bp: variable %s size %d != 8*count %d", v.Name, len(raw), v.Count)
	}
	out := make([]float64, v.Count)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[8*i:]))
	}
	return out, nil
}
