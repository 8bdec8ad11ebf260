package storage

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"
)

// fastRetry keeps failing-path tests quick: corruption at rest never heals,
// so burning the default backoff schedule on it is wasted wall time.
var fastRetry = RetryPolicy{Attempts: 2, BaseDelay: time.Microsecond, MaxDelay: 2 * time.Microsecond}

func TestEnvelopeSealRoundTrip(t *testing.T) {
	for _, n := range []int{0, 1, 7, 64, 65, 200} {
		data := payload(n)
		sealed, env := sealEnvelope(data, 64)
		if env.payload != int64(n) || int64(len(sealed)) != env.storedLen() {
			t.Fatalf("n=%d: env=%+v sealed=%d", n, env, len(sealed))
		}
		b := NewMemBackend()
		if err := b.Put("k", sealed); err != nil {
			t.Fatal(err)
		}
		got, err := envGet(context.Background(), b, "k", env)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if !bytes.Equal(got, data) {
			t.Fatalf("n=%d: payload mismatch", n)
		}
		for off := int64(0); off < int64(n); off += 37 {
			for _, ln := range []int64{1, 5, 64, int64(n) - off} {
				if ln <= 0 || off+ln > int64(n) {
					continue
				}
				got, err := envGetRange(context.Background(), b, "k", env, off, ln)
				if err != nil {
					t.Fatalf("n=%d range [%d,%d): %v", n, off, off+ln, err)
				}
				if !bytes.Equal(got, data[off:off+ln]) {
					t.Fatalf("n=%d range [%d,%d): bytes differ", n, off, off+ln)
				}
			}
		}
	}
}

// TestEnvelopeEveryByteFlipCaught flips each byte of a sealed value in turn
// — header, checksum table, payload — and asserts both full and ranged
// reads report ErrCorrupt, never wrong bytes.
func TestEnvelopeEveryByteFlipCaught(t *testing.T) {
	data := payload(150)
	sealed, env := sealEnvelope(data, 64)
	for i := range sealed {
		b := NewMemBackend()
		damaged := append([]byte(nil), sealed...)
		damaged[i] ^= 0x40
		if err := b.Put("k", damaged); err != nil {
			t.Fatal(err)
		}
		if got, err := envGet(context.Background(), b, "k", env); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("flip at %d: envGet err=%v data=%v", i, err, got != nil)
		}
		// The ranged read covering every block must also notice.
		if _, err := envGetRange(context.Background(), b, "k", env, 0, env.payload); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("flip at %d: envGetRange err=%v", i, err)
		}
	}
}

// TestEnvelopeRangedFlipOutsideExtent checks block scoping: damage in block
// 2 must not fail a ranged read confined to block 0, and must fail one that
// touches block 2.
func TestEnvelopeRangedFlipOutsideExtent(t *testing.T) {
	data := payload(300)
	sealed, env := sealEnvelope(data, 100)
	// Flip a payload byte inside block 2 (payload offset 250).
	sealed[env.dataOff()+250] ^= 1
	b := NewMemBackend()
	if err := b.Put("k", sealed); err != nil {
		t.Fatal(err)
	}
	got, err := envGetRange(context.Background(), b, "k", env, 10, 50)
	if err != nil {
		t.Fatalf("read clear of damaged block: %v", err)
	}
	if !bytes.Equal(got, data[10:60]) {
		t.Fatal("bytes differ in undamaged block")
	}
	if _, err := envGetRange(context.Background(), b, "k", env, 190, 100); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("read touching damaged block: err=%v", err)
	}
}

func TestEnvelopeTruncationCaught(t *testing.T) {
	data := payload(200)
	sealed, env := sealEnvelope(data, 64)
	b := NewMemBackend()
	if err := b.Put("k", sealed[:len(sealed)-10]); err != nil {
		t.Fatal(err)
	}
	if _, err := envGet(context.Background(), b, "k", env); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("envGet on truncated value: %v", err)
	}
	if _, err := envGetRange(context.Background(), b, "k", env, 150, 50); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("envGetRange past truncation: %v", err)
	}
}

// TestHierarchyVerifiesOnRead goes through the public API: a byte flipped
// behind the hierarchy's back surfaces as ErrCorrupt from Get and GetRange,
// wrapped with the exhausted attempt count.
func TestHierarchyVerifiesOnRead(t *testing.T) {
	h := TitanTwoTier(0)
	h.SetRetryPolicy(fastRetry)
	data := payload(500)
	if _, err := h.Put(context.Background(), "k", data, 0, 1); err != nil {
		t.Fatal(err)
	}
	// Verified round trip first.
	got, _, err := h.Get(context.Background(), "k", 1)
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("clean read: err=%v", err)
	}
	// Flip one stored payload byte directly on the backend.
	raw, err := h.Tier(0).Backend.Get("k")
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-1] ^= 1
	if err := h.Tier(0).Backend.Put("k", raw); err != nil {
		t.Fatal(err)
	}
	if _, _, err := h.Get(context.Background(), "k", 1); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Get err = %v, want ErrCorrupt", err)
	}
	if _, _, err := h.GetRange(context.Background(), "k", 490, 10, 1); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("GetRange err = %v, want ErrCorrupt", err)
	}
}

func TestSizeReportsPayloadNotEnvelope(t *testing.T) {
	h := TitanTwoTier(0)
	if _, err := h.Put(context.Background(), "k", payload(123), 0, 1); err != nil {
		t.Fatal(err)
	}
	if n, err := h.Size("k"); err != nil || n != 123 {
		t.Fatalf("Size = %d, %v; want 123", n, err)
	}
	if used := h.Tier(0).backend().Used(); used <= 123 {
		t.Fatalf("backend holds %d bytes, expected payload plus envelope framing", used)
	}
}

// TestFileTwoTierSniffsEnvelopes reopens a file-backed hierarchy and checks
// sealed values verify again, while a raw pre-envelope value written before
// the envelope existed still reads back bit-exact.
func TestFileTwoTierSniffsEnvelopes(t *testing.T) {
	dir := t.TempDir()
	h, err := FileTwoTier(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	sealedData := payload(300)
	if _, err := h.Put(context.Background(), "sealed", sealedData, 0, 1); err != nil {
		t.Fatal(err)
	}
	// A legacy value: raw bytes straight onto the tier backend, no envelope.
	legacy := payload(77)
	if err := h.Tier(1).Backend.Put("legacy", legacy); err != nil {
		t.Fatal(err)
	}

	h2, err := FileTwoTier(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	h2.SetRetryPolicy(fastRetry)
	got, _, err := h2.Get(context.Background(), "sealed", 1)
	if err != nil || !bytes.Equal(got, sealedData) {
		t.Fatalf("sealed after reopen: err=%v", err)
	}
	if n, err := h2.Size("sealed"); err != nil || n != 300 {
		t.Fatalf("sealed Size after reopen = %d, %v; want payload 300", n, err)
	}
	got, _, err = h2.Get(context.Background(), "legacy", 1)
	if err != nil || !bytes.Equal(got, legacy) {
		t.Fatalf("legacy after reopen: err=%v", err)
	}
	if got, _, err := h2.GetRange(context.Background(), "legacy", 10, 20, 1); err != nil || !bytes.Equal(got, legacy[10:30]) {
		t.Fatalf("legacy ranged after reopen: err=%v", err)
	}
	// Corruption introduced while the hierarchy was closed is still caught.
	raw, err := h2.Tier(0).Backend.Get("sealed")
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0x10
	if err := h2.Tier(0).Backend.Put("sealed", raw); err != nil {
		t.Fatal(err)
	}
	h3, err := FileTwoTier(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	h3.SetRetryPolicy(fastRetry)
	if _, _, err := h3.Get(context.Background(), "sealed", 1); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("damaged sealed value after reopen: err=%v, want ErrCorrupt", err)
	}
}

// forgedHeader is a 64-byte value whose envelope header has a valid CRC,
// block size 1 and a payload of 3,689,348,814,741,910,332 bytes, so its
// stored length, 20 + 5·payload, wraps int64 round to exactly 64.
func forgedHeader() []byte {
	raw := make([]byte, 64)
	copy(raw, envMagic)
	binary.LittleEndian.PutUint32(raw[4:], 1)
	binary.LittleEndian.PutUint64(raw[8:], 3_689_348_814_741_910_332)
	binary.LittleEndian.PutUint32(raw[16:], crc32.Checksum(raw[:16], castagnoli))
	return raw
}

// TestFileTwoTierRejectsForgedHeader: a header whose stored length does not
// fit in an int64 is no envelope, so the value reads back raw, never as a
// sealed value of 3.7e18 bytes.
func TestFileTwoTierRejectsForgedHeader(t *testing.T) {
	dir := t.TempDir()
	forged := forgedHeader()
	if err := os.MkdirAll(filepath.Join(dir, "lustre"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "lustre", "forged"), forged, 0o644); err != nil {
		t.Fatal(err)
	}
	h, err := FileTwoTier(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := h.Get(context.Background(), "forged", 1)
	if err != nil || !bytes.Equal(got, forged) {
		t.Fatalf("Get = %d bytes, %v; want the stored bytes raw", len(got), err)
	}
	if n, err := h.Size("forged"); err != nil || n != int64(len(forged)) {
		t.Fatalf("Size = %d, %v; want the stored %d bytes", n, err, len(forged))
	}
}

// selCountBackend counts ranged-read traffic for the selectivity bound.
type selCountBackend struct {
	Backend
	rangedBytes atomic.Int64
}

func (b *selCountBackend) GetRange(key string, off, n int64) ([]byte, error) {
	data, err := b.Backend.GetRange(key, off, n)
	if err == nil {
		b.rangedBytes.Add(int64(len(data)))
	}
	return data, err
}

// TestEnvelopedRangedReadStaysSelective bounds the envelope's ranged-read
// overhead: fetching a small extent of a large sealed value may round up to
// checksum-block granularity and read the header + table prefix, but must
// never materialize the rest of the value.
func TestEnvelopedRangedReadStaysSelective(t *testing.T) {
	h := TitanTwoTier(0)
	counter := &selCountBackend{Backend: h.Tier(0).backend()}
	h.Tier(0).Backend = counter
	const (
		total  = 1 << 20 // 1 MiB payload
		extent = 10_000
	)
	if _, err := h.Put(context.Background(), "big", payload(total), 0, 1); err != nil {
		t.Fatal(err)
	}
	counter.rangedBytes.Store(0)
	if _, _, err := h.GetRange(context.Background(), "big", 300_000, extent, 1); err != nil {
		t.Fatal(err)
	}
	moved := counter.rangedBytes.Load()
	// Worst case: extent rounded up to two envelope blocks, plus header and
	// the table prefix up to the last touched block.
	bound := int64(2*DefaultEnvelopeBlock) + envHeaderSize + 4*(total/DefaultEnvelopeBlock+1)
	if moved == 0 || moved > bound {
		t.Fatalf("ranged read moved %d backend bytes, bound %d (payload %d)", moved, bound, total)
	}
}
