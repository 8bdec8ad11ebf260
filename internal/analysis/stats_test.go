package analysis

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/mesh"
)

// A histogram, a test oracle for descriptive analytics (§II-D of the paper):
// the summaries scientists compute first on a restored level should
// stabilize well before full accuracy, which TestHistogramStableAcrossLevels
// checks.

// Histogram is a fixed-range, equal-width histogram.
type Histogram struct {
	Min, Max float64
	Counts   []int
	// Below and Above count samples outside [Min, Max].
	Below, Above int
}

// NewHistogram bins data into `bins` equal-width buckets over [lo, hi].
func NewHistogram(data []float64, bins int, lo, hi float64) (*Histogram, error) {
	if bins < 1 {
		return nil, fmt.Errorf("analysis: bins %d < 1", bins)
	}
	if !(lo < hi) {
		return nil, fmt.Errorf("analysis: histogram range [%g, %g) empty", lo, hi)
	}
	h := &Histogram{Min: lo, Max: hi, Counts: make([]int, bins)}
	w := (hi - lo) / float64(bins)
	for _, v := range data {
		switch {
		case v < lo:
			h.Below++
		case v >= hi:
			// The top edge is inclusive so max values are not lost.
			if v == hi {
				h.Counts[bins-1]++
			} else {
				h.Above++
			}
		default:
			b := int((v - lo) / w)
			if b >= bins {
				b = bins - 1
			}
			h.Counts[b]++
		}
	}
	return h, nil
}

// Total counts all samples, including out-of-range ones.
func (h *Histogram) Total() int {
	n := h.Below + h.Above
	for _, c := range h.Counts {
		n += c
	}
	return n
}

// Normalized returns bin frequencies (fractions of the total).
func (h *Histogram) Normalized() []float64 {
	total := h.Total()
	out := make([]float64, len(h.Counts))
	if total == 0 {
		return out
	}
	for i, c := range h.Counts {
		out[i] = float64(c) / float64(total)
	}
	return out
}

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
