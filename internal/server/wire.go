package server

import (
	"encoding/base64"
	"encoding/binary"
	"encoding/json"
	"math"
	"math/bits"
	"net/http"
	"slices"
	"strconv"
	"sync"

	"repro/internal/core"
	"repro/internal/obs"
)

// viewBody is a restored view as the wire carries it. A whole view is the
// JSON object {name, level, levels, error_bound, num_verts, data,
// degradation?, cost?}; a region view is {name, level, error_bound,
// num_verts, restored, data, have, degradation?, cost?}. data is the view's
// little-endian float64 bytes and have one 0/1 byte per vertex, both base64
// as encoding/json writes a []byte, so clients and the bit-identity tests
// recover the exact values the library returns.
type viewBody struct {
	name       string
	level      int
	levels     int // whole views only
	errorBound float64
	numVerts   int
	data       []float64
	region     bool   // a region view: restored and have replace levels
	restored   int    // region views only
	have       []bool // region views only
	deg        *core.Degradation
	cost       *obs.CostReport
}

// appendTo appends the body as json.Marshal of the equivalent struct would
// write it, byte for byte. The pieces that can need escaping or float
// formatting go through encoding/json, so a non-finite float among them
// fails the append before anything has been written to the client; data
// and have are encoded straight from their slices.
func (b *viewBody) appendTo(buf []byte) ([]byte, error) {
	name, _ := json.Marshal(b.name) // a string always marshals
	bound, err := json.Marshal(b.errorBound)
	if err != nil {
		return buf, err
	}
	var deg, cost []byte
	if b.deg != nil {
		if deg, err = json.Marshal(b.deg); err != nil {
			return buf, err
		}
	}
	if b.cost != nil {
		if cost, err = json.Marshal(b.cost); err != nil {
			return buf, err
		}
	}
	buf = append(buf, `{"name":`...)
	buf = append(buf, name...)
	buf = append(buf, `,"level":`...)
	buf = strconv.AppendInt(buf, int64(b.level), 10)
	if !b.region {
		buf = append(buf, `,"levels":`...)
		buf = strconv.AppendInt(buf, int64(b.levels), 10)
	}
	buf = append(buf, `,"error_bound":`...)
	buf = append(buf, bound...)
	buf = append(buf, `,"num_verts":`...)
	buf = strconv.AppendInt(buf, int64(b.numVerts), 10)
	if b.region {
		buf = append(buf, `,"restored":`...)
		buf = strconv.AppendInt(buf, int64(b.restored), 10)
	}

	// Everything left has a known length: grow once to fit it, plus the
	// two bytes of a caller's trailing newlines.
	rest := len(`,"data":""}`) + base64.StdEncoding.EncodedLen(8*len(b.data)) + 2
	if b.region {
		rest += len(`,"have":""`) + base64.StdEncoding.EncodedLen(len(b.have))
	}
	if deg != nil {
		rest += len(`,"degradation":`) + len(deg)
	}
	if cost != nil {
		rest += len(`,"cost":`) + len(cost)
	}
	buf = slices.Grow(buf, rest)

	buf = append(buf, `,"data":"`...)
	buf = appendFloatsBase64(buf, b.data)
	buf = append(buf, '"')
	if b.region {
		buf = append(buf, `,"have":"`...)
		buf = appendBoolsBase64(buf, b.have)
		buf = append(buf, '"')
	}
	if deg != nil {
		buf = append(buf, `,"degradation":`...)
		buf = append(buf, deg...)
	}
	if cost != nil {
		buf = append(buf, `,"cost":`...)
		buf = append(buf, cost...)
	}
	return append(buf, '}'), nil
}

// base64Pairs maps 12 bits to their two standard base64 characters, the
// first in the low byte.
var base64Pairs = func() (t [4096]uint16) {
	const alphabet = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/"
	for i := range t {
		t[i] = uint16(alphabet[i>>6]) | uint16(alphabet[i&63])<<8
	}
	return t
}()

// base64Of48 returns the eight base64 characters of the low 48 bits of x,
// most significant first, packed for a little-endian store.
func base64Of48(x uint64) uint64 {
	return uint64(base64Pairs[x>>36&0xfff]) | uint64(base64Pairs[x>>24&0xfff])<<16 |
		uint64(base64Pairs[x>>12&0xfff])<<32 | uint64(base64Pairs[x&0xfff])<<48
}

// appendFloatsBase64 appends base64.StdEncoding of vals' little-endian
// bytes: three values, 24 bytes, become 32 characters per step.
func appendFloatsBase64(dst []byte, vals []float64) []byte {
	dst = slices.Grow(dst, base64.StdEncoding.EncodedLen(8*len(vals)))
	n := len(vals) - len(vals)%3
	for i := 0; i < n; i += 3 {
		// Byte-reversed, each value reads in stream order from the top bit.
		a := bits.ReverseBytes64(math.Float64bits(vals[i]))
		b := bits.ReverseBytes64(math.Float64bits(vals[i+1]))
		c := bits.ReverseBytes64(math.Float64bits(vals[i+2]))
		dst = binary.LittleEndian.AppendUint64(dst, base64Of48(a>>16))
		dst = binary.LittleEndian.AppendUint64(dst, base64Of48(a<<32|b>>32))
		dst = binary.LittleEndian.AppendUint64(dst, base64Of48(b<<16|c>>48))
		dst = binary.LittleEndian.AppendUint64(dst, base64Of48(c))
	}
	var tail [16]byte
	for j, v := range vals[n:] {
		binary.LittleEndian.PutUint64(tail[8*j:], math.Float64bits(v))
	}
	return base64.StdEncoding.AppendEncode(dst, tail[:8*(len(vals)-n)])
}

// appendBoolsBase64 appends base64.StdEncoding of one 0/1 byte per flag.
func appendBoolsBase64(dst []byte, flags []bool) []byte {
	dst = slices.Grow(dst, base64.StdEncoding.EncodedLen(len(flags)))
	n := len(flags) - len(flags)%3
	for i := 0; i < n; i += 3 {
		x := bit(flags[i])<<16 | bit(flags[i+1])<<8 | bit(flags[i+2])
		dst = binary.LittleEndian.AppendUint16(dst, base64Pairs[x>>12])
		dst = binary.LittleEndian.AppendUint16(dst, base64Pairs[x&0xfff])
	}
	var tail [2]byte
	for j, f := range flags[n:] {
		tail[j] = byte(bit(f))
	}
	return base64.StdEncoding.AppendEncode(dst, tail[:len(flags)-n])
}

func bit(f bool) int {
	if f {
		return 1
	}
	return 0
}

// bodyPool recycles response body buffers. A buffer over maxPooledBody is
// left to the collector, so one huge view does not stay pinned in the pool.
var bodyPool = sync.Pool{New: func() any { return new([]byte) }}

const maxPooledBody = 4 << 20

// withBody runs fill on a pooled empty buffer and recycles what it returns.
// fill must not keep the buffer.
func withBody(fill func(buf []byte) ([]byte, error)) error {
	p := bodyPool.Get().(*[]byte)
	buf, err := fill((*p)[:0])
	if cap(buf) <= maxPooledBody {
		*p = buf[:0]
		bodyPool.Put(p)
	}
	return err
}

// writeView answers 200 with the view's body. The body is built in full
// before the header goes out, so an unencodable view is returned as an
// error for the guard to answer with a 500.
func writeView(w http.ResponseWriter, b *viewBody) error {
	return withBody(func(buf []byte) ([]byte, error) {
		buf, err := b.appendTo(buf)
		if err == nil {
			buf = append(buf, '\n')
			writeBody(w, http.StatusOK, buf)
		}
		return buf, err
	})
}

// writeBody writes a complete JSON body with its length, in one Write.
func writeBody(w http.ResponseWriter, code int, body []byte) {
	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set("Content-Length", strconv.Itoa(len(body)))
	w.WriteHeader(code)
	// A failed write means the client has gone; there is no one to tell.
	_, _ = w.Write(body)
}
