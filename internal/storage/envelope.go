package storage

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"

	"repro/internal/obs"
)

// Integrity envelope. Every value the hierarchy stores is wrapped in a
// CRC32C (Castagnoli) envelope at Put and verified on the way back out, so
// a flipped bit on any tier — burst buffer, PFS, campaign store — surfaces
// as a typed ErrCorrupt instead of silently wrong science. The payload is
// checksummed in fixed-size blocks so ranged reads (the PR 2 no-
// materialization contract) verify only the blocks they touch:
//
//	[0:4)   magic "CNV1"
//	[4:8)   block size, uint32 LE
//	[8:16)  payload length, uint64 LE
//	[16:20) CRC32C of bytes [0:16) — guards the header itself
//	[20:20+4n) per-block CRC32C, n = ceil(payload/block)
//	[20+4n:)  payload bytes
//
// The envelope is a storage-internal framing: callers see payload bytes and
// payload offsets only, and the simulated cost model keeps charging payload
// extents, so modeled experiment output is independent of the envelope.
// Values stored before the envelope existed (or with envelopes disabled)
// are tracked per catalog entry and read back bit-exact; reopening a
// file-backed hierarchy version-sniffs each value's header, mirroring the
// CCK2 magic-sniff approach in internal/compress.

const (
	envMagic      = "CNV1"
	envHeaderSize = 20
	// DefaultEnvelopeBlock is the default checksum block size: small enough
	// that a focused delta-tile read verifies little beyond what it fetches,
	// large enough that the table stays ~0.006% of the payload.
	DefaultEnvelopeBlock = 64 << 10
)

// ErrCorrupt reports that stored bytes failed checksum verification —
// a torn write, a flipped bit, or a truncated value. It is typed so read
// paths can distinguish data loss from data absence (ErrNotFound) and
// degrade instead of erroring out.
var ErrCorrupt = errors.New("stored data corrupt")

// ErrTransient marks an error worth retrying: the operation failed but the
// data is not known to be gone or bad (an injected fault, a flaky tier).
// The hierarchy's read retry policy backs off and retries these.
var ErrTransient = errors.New("transient storage fault")

// evCorruption records every checksum-verification failure — detected
// corruption, as opposed to fault_injected's caused corruption.
var evCorruption = obs.RegisterEventType("corruption")

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// envInfo is the catalog-side description of one sealed value. nil means the
// value is stored raw (legacy, pre-envelope).
type envInfo struct {
	block   int64 // checksum block size
	payload int64 // payload byte length
}

// nBlocks is payload/block rounded up, without the payload+block sum a
// forged header could overflow.
func (e *envInfo) nBlocks() int64 {
	return e.payload/e.block + min(e.payload%e.block, 1)
}

// dataOff is the envelope offset where payload bytes start.
func (e *envInfo) dataOff() int64 {
	return envHeaderSize + 4*e.nBlocks()
}

// storedLen is the full envelope length on the backend.
func (e *envInfo) storedLen() int64 {
	return e.dataOff() + e.payload
}

func corruptErr(key string, detail string) error {
	evCorruption.Emit("key", key, "detail", detail)
	return fmt.Errorf("storage: %w: %q: %s", ErrCorrupt, key, detail)
}

// sealEnvelope wraps data in a checksum envelope with the given block size.
func sealEnvelope(data []byte, block int64) ([]byte, *envInfo) {
	e := &envInfo{block: block, payload: int64(len(data))}
	nb := e.nBlocks()
	out := make([]byte, e.storedLen())
	copy(out, envMagic)
	binary.LittleEndian.PutUint32(out[4:], uint32(block))
	binary.LittleEndian.PutUint64(out[8:], uint64(len(data)))
	binary.LittleEndian.PutUint32(out[16:], crc32.Checksum(out[:16], castagnoli))
	for i := int64(0); i < nb; i++ {
		lo := i * block
		hi := min(lo+block, e.payload)
		binary.LittleEndian.PutUint32(out[envHeaderSize+4*i:], crc32.Checksum(data[lo:hi], castagnoli))
	}
	copy(out[e.dataOff():], data)
	return out, e
}

// parseEnvelopeHeader sniffs hdr (>= envHeaderSize bytes) for a valid
// envelope header. The header CRC makes a false positive on legacy raw data
// a ~2^-32 event on top of the magic match.
func parseEnvelopeHeader(hdr []byte) (*envInfo, bool) {
	if len(hdr) < envHeaderSize || string(hdr[:4]) != envMagic {
		return nil, false
	}
	if crc32.Checksum(hdr[:16], castagnoli) != binary.LittleEndian.Uint32(hdr[16:20]) {
		return nil, false
	}
	e := &envInfo{
		block:   int64(binary.LittleEndian.Uint32(hdr[4:8])),
		payload: int64(binary.LittleEndian.Uint64(hdr[8:16])),
	}
	if e.block <= 0 || e.payload < 0 {
		return nil, false
	}
	// The stored length, 20 + 4·nBlocks + payload, must fit in an int64, or
	// a forged header could wrap it round to the value's real length.
	if e.nBlocks() > (math.MaxInt64-envHeaderSize-e.payload)/4 {
		return nil, false
	}
	return e, true
}

// checkHeader verifies stored header bytes against the catalog's envelope
// record. A mismatch means the header region itself was damaged.
func (e *envInfo) checkHeader(key string, hdr []byte) error {
	got, ok := parseEnvelopeHeader(hdr)
	if !ok {
		return corruptErr(key, "envelope header damaged")
	}
	if got.block != e.block || got.payload != e.payload {
		return corruptErr(key, fmt.Sprintf("envelope header disagrees with catalog (block %d/%d, payload %d/%d)",
			got.block, e.block, got.payload, e.payload))
	}
	return nil
}

// verifyBlocks checks data (the contiguous payload bytes of blocks
// [first, last]) against the checksum table entries in table (whose entry 0
// is block `first`'s checksum).
func (e *envInfo) verifyBlocks(key string, first, last int64, table, data []byte) error {
	for blk := first; blk <= last; blk++ {
		lo := (blk - first) * e.block
		hi := min(lo+e.block, lo+(e.payload-blk*e.block))
		if hi > int64(len(data)) {
			return corruptErr(key, fmt.Sprintf("block %d truncated", blk))
		}
		want := binary.LittleEndian.Uint32(table[(blk-first)*4:])
		if crc32.Checksum(data[lo:hi], castagnoli) != want {
			return corruptErr(key, fmt.Sprintf("checksum mismatch in block %d", blk))
		}
	}
	return nil
}

// envGet reads and fully verifies a sealed value, returning the payload.
func envGet(ctx context.Context, b Backend, key string, e *envInfo) ([]byte, error) {
	raw, err := backendGet(ctx, b, key)
	if err != nil {
		return nil, err
	}
	if int64(len(raw)) != e.storedLen() {
		return nil, corruptErr(key, fmt.Sprintf("stored %d bytes, envelope wants %d", len(raw), e.storedLen()))
	}
	if err := e.checkHeader(key, raw[:envHeaderSize]); err != nil {
		return nil, err
	}
	nb := e.nBlocks()
	if nb == 0 {
		return []byte{}, nil
	}
	if err := e.verifyBlocks(key, 0, nb-1, raw[envHeaderSize:e.dataOff()], raw[e.dataOff():]); err != nil {
		return nil, err
	}
	return raw[e.dataOff():], nil
}

// envReadErr maps backend errors on envelope-internal reads: an extent the
// envelope says must exist but the backend calls out of range means the
// stored value was truncated — corruption, not a caller bug.
func envReadErr(key string, err error) error {
	if errors.Is(err, ErrOutOfRange) {
		return corruptErr(key, "stored value truncated below envelope size")
	}
	return err
}

// envGetRange reads payload extent [off, off+n) out of a sealed value,
// verifying the header and exactly the checksum blocks the extent touches.
// Two backend reads: header + table prefix, then the covering payload
// blocks — the rest of the value is never materialized.
func envGetRange(ctx context.Context, b Backend, key string, e *envInfo, off, n int64) ([]byte, error) {
	if err := checkRange(key, off, n, e.payload); err != nil {
		return nil, err
	}
	if n == 0 {
		return []byte{}, nil
	}
	first := off / e.block
	last := (off + n - 1) / e.block
	head, err := backendGetRange(ctx, b, key, 0, envHeaderSize+4*(last+1))
	if err != nil {
		return nil, envReadErr(key, err)
	}
	if int64(len(head)) != envHeaderSize+4*(last+1) {
		return nil, corruptErr(key, "short header read")
	}
	if err := e.checkHeader(key, head[:envHeaderSize]); err != nil {
		return nil, err
	}
	dstart := e.dataOff() + first*e.block
	dend := min(e.dataOff()+(last+1)*e.block, e.dataOff()+e.payload)
	data, err := backendGetRange(ctx, b, key, dstart, dend-dstart)
	if err != nil {
		return nil, envReadErr(key, err)
	}
	if int64(len(data)) != dend-dstart {
		return nil, corruptErr(key, "short block read")
	}
	if err := e.verifyBlocks(key, first, last, head[envHeaderSize+4*first:], data); err != nil {
		return nil, err
	}
	lo := off - first*e.block
	return data[lo : lo+n : lo+n], nil
}
