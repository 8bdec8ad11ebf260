package adios

import (
	"context"
	"errors"
	"fmt"
	"math"
	"testing"

	"repro/internal/bp"
	"repro/internal/storage"
)

func newIO(t *testing.T) *IO {
	t.Helper()
	return NewIO(storage.TitanTwoTier(0), nil)
}

func container(t *testing.T) *bp.Writer {
	t.Helper()
	w := bp.NewWriter()
	if err := w.PutFloats("dpot", 2, []float64{1, 2, 3, 4}, nil); err != nil {
		t.Fatal(err)
	}
	if err := w.PutBytes("mesh", 2, make([]byte, 4096), nil); err != nil {
		t.Fatal(err)
	}
	return w
}

func TestWriteOpenReadRoundTrip(t *testing.T) {
	io := newIO(t)
	p, err := io.WriteContainer(context.Background(), "level2", container(t), 0)
	if err != nil {
		t.Fatal(err)
	}
	if p.TierName != "tmpfs" {
		t.Fatalf("placed on %s, want tmpfs", p.TierName)
	}
	h, err := io.Open(context.Background(), "level2", 1)
	if err != nil {
		t.Fatal(err)
	}
	if h.TierName != "tmpfs" {
		t.Fatalf("opened on %s", h.TierName)
	}
	vals, err := h.ReadFloats("dpot", 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(vals) != 4 || vals[3] != 4 {
		t.Fatalf("vals = %v", vals)
	}
}

func TestOpenMissing(t *testing.T) {
	io := newIO(t)
	if _, err := io.Open(context.Background(), "ghost", 1); !errors.Is(err, storage.ErrNotFound) {
		t.Fatalf("err = %v, want ErrNotFound", err)
	}
}

func TestSelectiveReadCostsLessThanFullContainer(t *testing.T) {
	io := newIO(t)
	if _, err := io.WriteContainer(context.Background(), "c", container(t), 1); err != nil {
		t.Fatal(err)
	}
	h, err := io.Open(context.Background(), "c", 1)
	if err != nil {
		t.Fatal(err)
	}
	openCost := h.Cost()
	// Read only the small float variable, not the 4 KiB mesh blob.
	if _, err := h.ReadFloats("dpot", 2); err != nil {
		t.Fatal(err)
	}
	afterRead := h.Cost()
	varBytes := afterRead.Bytes - openCost.Bytes
	if varBytes != 32 {
		t.Fatalf("selective read moved %d bytes, want 32", varBytes)
	}
	if afterRead.Bytes >= 4096 {
		t.Fatalf("read cost counted the unread mesh blob (%d bytes)", afterRead.Bytes)
	}
	if afterRead.Seconds <= openCost.Seconds {
		t.Fatal("read added no simulated time")
	}
}

func TestReadMissingVariable(t *testing.T) {
	io := newIO(t)
	if _, err := io.WriteContainer(context.Background(), "c", container(t), 0); err != nil {
		t.Fatal(err)
	}
	h, err := io.Open(context.Background(), "c", 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.ReadFloats("dpot", 0); err == nil {
		t.Fatal("read of absent level succeeded")
	}
	if _, err := h.ReadBytes("nope", 2); err == nil {
		t.Fatal("read of absent variable succeeded")
	}
	if _, ok := h.InqVar("dpot", 2); !ok {
		t.Fatal("InqVar failed on present variable")
	}
}

func TestPOSIXTransportCost(t *testing.T) {
	h := storage.TitanTwoTier(0)
	p, err := POSIX{}.Write(context.Background(), h, "k", make([]byte, 3_000_000), 1)
	if err != nil {
		t.Fatal(err)
	}
	want := 1e-3 + 3e6/1e7
	if math.Abs(p.Cost.Seconds-want) > 1e-9 {
		t.Fatalf("posix cost %g, want %g", p.Cost.Seconds, want)
	}
}

func TestMPIAggregateCost(t *testing.T) {
	h := storage.TitanTwoTier(0)
	tr := MPIAggregate{Ranks: 512, Aggregators: 8, NetBandwidth: 1e9}
	data := make([]byte, 8_000_000)
	p, err := tr.Write(context.Background(), h, "k", data, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Storage phase: 8 concurrent writers share 3e8 B/s; gather phase:
	// 1e6 bytes per aggregator over 1e9 B/s.
	want := 1e-3 + 8e6*8/1e7 + 1e6/1e9
	if math.Abs(p.Cost.Seconds-want) > 1e-9 {
		t.Fatalf("aggregate cost %g, want %g", p.Cost.Seconds, want)
	}
}

func TestMPIAggregateClampsDegenerateParams(t *testing.T) {
	h := storage.TitanTwoTier(0)
	tr := MPIAggregate{Ranks: 0, Aggregators: -1, NetBandwidth: 0}
	if _, err := tr.Write(context.Background(), h, "k", []byte{1, 2, 3}, 0); err != nil {
		t.Fatal(err)
	}
}

func TestStagingPrefersFastTier(t *testing.T) {
	h := storage.TitanTwoTier(0)
	p, err := Staging{}.Write(context.Background(), h, "k", make([]byte, 1024), 1) // pref ignored
	if err != nil {
		t.Fatal(err)
	}
	if p.TierIdx != 0 {
		t.Fatalf("staging placed on tier %d, want 0", p.TierIdx)
	}
}

func TestStagingNetworkBound(t *testing.T) {
	h := storage.TitanTwoTier(0)
	// Slow network: 1 MB at 1e6 B/s => 1 s, dominating the memory write.
	p, err := Staging{NetBandwidth: 1e6}.Write(context.Background(), h, "k", make([]byte, 1_000_000), 0)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(p.Cost.Seconds-1.0) > 1e-6 {
		t.Fatalf("staging cost %g, want ~1.0", p.Cost.Seconds)
	}
}

func TestTransportByName(t *testing.T) {
	for _, name := range []string{"posix", "mpi-aggregate", "staging"} {
		tr, err := TransportByName(name)
		if err != nil {
			t.Fatal(err)
		}
		if tr.Name() != name {
			t.Fatalf("TransportByName(%q).Name() = %q", name, tr.Name())
		}
	}
	if tr, err := TransportByName(""); err != nil || tr.Name() != "posix" {
		t.Fatal("empty method must default to posix")
	}
	if _, err := TransportByName("rdma-magic"); err == nil {
		t.Fatal("unknown method accepted")
	}
}

// ReadFloats selectively reads one float64 variable.
func (h *Handle) ReadFloats(name string, level int) ([]float64, error) {
	v, ok := h.BP.Inq(name, level)
	if !ok {
		return nil, fmt.Errorf("adios: variable %s@%d not in container", name, level)
	}
	return h.BP.ReadFloats(v)
}
