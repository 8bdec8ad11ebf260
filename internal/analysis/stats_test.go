package analysis

import (
	"math"
	"testing"

	"repro/internal/mesh"
)

func TestHistogramBasics(t *testing.T) {
	h, err := NewHistogram([]float64{0, 0.5, 1.0, 1.5, 2.0, -1, 5}, 4, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Bins [0,0.5) [0.5,1) [1,1.5) [1.5,2]; 2.0 lands in the top bin.
	want := []int{1, 1, 1, 2}
	for i := range want {
		if h.Counts[i] != want[i] {
			t.Fatalf("Counts = %v, want %v", h.Counts, want)
		}
	}
	if h.Below != 1 || h.Above != 1 {
		t.Fatalf("Below=%d Above=%d", h.Below, h.Above)
	}
	if h.Total() != 7 {
		t.Fatalf("Total = %d", h.Total())
	}
	norm := h.Normalized()
	var sum float64
	for _, f := range norm {
		sum += f
	}
	if math.Abs(sum-5.0/7) > 1e-12 {
		t.Fatalf("normalized in-range mass %g, want 5/7", sum)
	}
}

func TestHistogramErrors(t *testing.T) {
	if _, err := NewHistogram(nil, 0, 0, 1); err == nil {
		t.Error("accepted 0 bins")
	}
	if _, err := NewHistogram(nil, 4, 1, 1); err == nil {
		t.Error("accepted empty range")
	}
	if _, err := NewHistogram(nil, 4, 2, 1); err == nil {
		t.Error("accepted inverted range")
	}
}

func TestHistogramStableAcrossLevels(t *testing.T) {
	// The §II-D promise: a descriptive summary computed on decimated
	// data closely matches the full-accuracy one. Compare histograms of
	// a smooth field before and after crude subsampling (a stand-in for
	// a decimated level with the same value distribution).
	m := mesh.Rect(48, 48, 1, 1)
	data := make([]float64, m.NumVerts())
	for i, v := range m.Verts {
		data[i] = math.Sin(5*v.X) * math.Cos(4*v.Y)
	}
	coarse := make([]float64, 0, len(data)/4)
	for i := 0; i < len(data); i += 4 {
		coarse = append(coarse, data[i])
	}
	hFull, err := NewHistogram(data, 16, -1, 1)
	if err != nil {
		t.Fatal(err)
	}
	hCoarse, err := NewHistogram(coarse, 16, -1, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Total variation distance between the normalized histograms.
	var d float64
	full, coarseN := hFull.Normalized(), hCoarse.Normalized()
	for i := range full {
		d += math.Abs(full[i]-coarseN[i]) / 2
	}
	if d > 0.08 {
		t.Fatalf("histogram drift %g across 4x reduction; summary not stable", d)
	}
}
