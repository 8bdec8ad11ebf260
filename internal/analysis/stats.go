package analysis

import "fmt"

// Descriptive analytics (§II-D of the paper: "Descriptive, predictive, and
// prescriptive analytics are widely used to generate actionable results").
// These are the summaries scientists compute first on a restored level, and
// the progressive-exploration promise is that they stabilize well before
// full accuracy — which TestHistogramStableAcrossLevels exercises.

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
