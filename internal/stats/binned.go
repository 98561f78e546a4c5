package stats

import (
	"math"
	"time"
)

// Binned is a fixed-width time series: a preallocated vector of bins
// over [0, horizon), each accumulating a float64. It is the O(1)
// per-packet (and O(horizon/width) memory) replacement for buffered
// per-packet series at fleet scale — link utilization adds wire bytes
// at capture time, concurrency tracks +1/-1 deltas — and two series
// with the same shape merge by plain element addition, deterministic
// across fleet shards.
type Binned struct {
	Width time.Duration
	Bins  []float64
}

// NewBinned allocates a series of ceil(horizon/width) bins. Width and
// horizon must be positive.
func NewBinned(width, horizon time.Duration) *Binned {
	if width <= 0 || horizon <= 0 {
		panic("stats: binned series needs positive width and horizon")
	}
	n := int((horizon + width - 1) / width)
	if n < 1 {
		n = 1
	}
	return &Binned{Width: width, Bins: make([]float64, n)}
}

// Reset zeroes every bin in place, keeping the backing slice and
// geometry — the recycled-series counterpart of NewBinned.
func (b *Binned) Reset() {
	clear(b.Bins)
}

// idx clamps a timestamp into the bin range, so samples exactly at the
// horizon (a delivery scheduled at the final instant) land in the last
// bin instead of vanishing.
func (b *Binned) idx(at time.Duration) int {
	if at < 0 {
		return 0
	}
	i := int(at / b.Width)
	if i >= len(b.Bins) {
		i = len(b.Bins) - 1
	}
	return i
}

// Add accumulates v into the bin covering at.
func (b *Binned) Add(at time.Duration, v float64) {
	b.Bins[b.idx(at)] += v
}

// Merge adds o element-wise into b. Shapes must match — merging is
// only defined between series of the same geometry (fleet shards share
// one geometry by construction). Merge panics when CanMerge reports
// false.
func (b *Binned) Merge(o *Binned) {
	if !b.CanMerge(o) {
		panic("stats: merging binned series with different geometry")
	}
	if o == nil {
		return
	}
	for i, v := range o.Bins {
		b.Bins[i] += v
	}
}

// CanMerge reports whether b.Merge(o) is defined: o is nil, or b
// exists with o's width and bin count.
func (b *Binned) CanMerge(o *Binned) bool {
	return o == nil || (b != nil && b.Width == o.Width && len(b.Bins) == len(o.Bins))
}

// Sum returns the total accumulated across all bins.
func (b *Binned) Sum() float64 {
	s := 0.0
	for _, v := range b.Bins {
		s += v
	}
	return s
}

// PerSecond returns the series normalized to per-second rates
// (bin value divided by the bin width).
func (b *Binned) PerSecond() []float64 {
	out := make([]float64, len(b.Bins))
	w := b.Width.Seconds()
	for i, v := range b.Bins {
		out[i] = v / w
	}
	return out
}

// Cum returns the running (prefix) sum — the concurrency series when
// the bins hold +1 arrival / -1 departure deltas.
func (b *Binned) Cum() []float64 {
	out := make([]float64, len(b.Bins))
	s := 0.0
	for i, v := range b.Bins {
		s += v
		out[i] = s
	}
	return out
}

// From returns the suffix of the series starting at the bin covering
// t — the post-warm-up window burstiness is measured over.
func (b *Binned) From(t time.Duration) []float64 {
	return b.Bins[b.idx(t):]
}

// CV returns the coefficient of variation (std/mean) of xs — the
// paper-style burstiness index of a rate series: 0 for a perfectly
// smooth link, growing as ON-OFF cycles synchronize into bursts. NaN
// when the series is empty or has zero mean.
func CV(xs []float64) float64 {
	m := Mean(xs)
	if math.IsNaN(m) || m == 0 {
		return math.NaN()
	}
	return Std(xs) / m
}

// PeakToMean returns max/mean of xs — the dimensioning-oriented
// burstiness companion to CV. NaN for empty or zero-mean series.
func PeakToMean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	m := Mean(xs)
	if m == 0 {
		return math.NaN()
	}
	peak := xs[0]
	for _, x := range xs[1:] {
		if x > peak {
			peak = x
		}
	}
	return peak / m
}
