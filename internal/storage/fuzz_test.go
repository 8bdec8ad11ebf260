package storage

import (
	"bytes"
	"context"
	"errors"
	"testing"
)

// FuzzEnvelope hardens the integrity envelope against any stored bytes. The
// catalog's record of a value is the header parsed from catalog (what Put
// sealed) or from the stored bytes themselves (what a reopen sniffs). Under
// either, parsing, envGet and envGetRange over any extent never panic, and
// each read returns either the verified payload bytes or an error that is
// ErrCorrupt, ErrOutOfRange or ErrNotFound; ErrOutOfRange exactly when the
// extent does not lie inside the payload.
func FuzzEnvelope(f *testing.F) {
	for _, c := range []struct{ n, block int }{{0, 64}, {1, 64}, {150, 64}, {300, 100}} {
		sealed, _ := sealEnvelope(payload(c.n), int64(c.block))
		for _, at := range []int{0, 5, 9, 17, 21, len(sealed) - 1} {
			damaged := append([]byte(nil), sealed...)
			damaged[at%len(damaged)] ^= 0x40
			f.Add(damaged, sealed[:envHeaderSize], int64(c.n/3), int64(c.n/2))
		}
		f.Add(sealed, sealed[:envHeaderSize], int64(-1), int64(2))
		f.Add(sealed, sealed[:envHeaderSize], int64(1), int64(1<<63-1))
	}
	forged := forgedHeader()
	f.Add(forged, forged[:envHeaderSize], int64(0), int64(8))
	f.Fuzz(func(t *testing.T, stored, catalog []byte, off, n int64) {
		ctx := context.Background()
		b := NewMemBackend()
		if err := b.Put("k", stored); err != nil {
			t.Fatal(err)
		}
		for _, hdr := range [][]byte{catalog, stored} {
			e, ok := parseEnvelopeHeader(hdr)
			if !ok {
				continue
			}
			if e.storedLen() < e.payload || e.dataOff() < envHeaderSize {
				t.Fatalf("header %+v: stored length %d wrapped", *e, e.storedLen())
			}
			full, err := envGet(ctx, b, "k", e)
			if err == nil {
				// A verified value is exactly the sealing of its payload.
				if resealed, _ := sealEnvelope(full, e.block); !bytes.Equal(resealed, stored) {
					t.Fatalf("envGet returned %d bytes that do not reseal to the stored value", len(full))
				}
			} else if !expectedErr(err) {
				t.Fatalf("envGet: unexpected error %v", err)
			}
			got, err := envGetRange(ctx, b, "k", e, off, n)
			outside := off < 0 || n < 0 || off > e.payload || n > e.payload-off
			if outside != errors.Is(err, ErrOutOfRange) {
				t.Fatalf("envGetRange [%d,+%d) of a %d-byte payload: error %v", off, n, e.payload, err)
			}
			if err != nil {
				if !expectedErr(err) {
					t.Fatalf("envGetRange [%d,+%d): unexpected error %v", off, n, err)
				}
				continue
			}
			if int64(len(got)) != n {
				t.Fatalf("envGetRange [%d,+%d) returned %d bytes", off, n, len(got))
			}
			if n > 0 && !bytes.Equal(got, stored[e.dataOff()+off:e.dataOff()+off+n]) {
				t.Fatalf("envGetRange [%d,+%d) returned bytes that are not the stored payload's", off, n)
			}
			if full != nil && !bytes.Equal(got, full[off:off+n]) {
				t.Fatalf("envGetRange [%d,+%d) disagrees with envGet", off, n)
			}
		}
	})
}

// FuzzParseFaultSpec hardens the -faults grammar, which comes from the
// command line: any string parses or is refused without a panic, and every
// accepted spec has each probability in [0,1] and a non-negative delay.
func FuzzParseFaultSpec(f *testing.F) {
	for _, s := range badFaultSpecs {
		f.Add(s)
	}
	f.Add("seed=7,tier=lustre,read.err=0.25,read.corrupt=0.5,read.trunc=0.1,read.delay=2ms,write.err=0.3,write.crash=1")
	f.Add("read.err=1e-320, write.crash=0x1p-2,read.delay=1h")
	f.Fuzz(func(t *testing.T, s string) {
		spec, err := ParseFaultSpec(s)
		if err != nil {
			return
		}
		for _, p := range []float64{spec.ReadErr, spec.ReadCorrupt, spec.ReadTrunc, spec.WriteErr, spec.WriteCrash} {
			if !(p >= 0 && p <= 1) {
				t.Fatalf("spec %q accepted with probability %v", s, p)
			}
		}
		if spec.ReadDelay < 0 {
			t.Fatalf("spec %q accepted with delay %v", s, spec.ReadDelay)
		}
	})
}

func expectedErr(err error) bool {
	return errors.Is(err, ErrCorrupt) || errors.Is(err, ErrOutOfRange) || errors.Is(err, ErrNotFound)
}
