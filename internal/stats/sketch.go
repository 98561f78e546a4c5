package stats

import (
	"math"
	"sort"
)

// Sketch is a mergeable streaming quantile sketch with a guaranteed
// relative error: every quantile estimate is within RelErr of the true
// sample value at that rank. It is the DDSketch construction —
// logarithmic bins of width log(gamma), gamma = (1+e)/(1-e) — chosen
// over rank-based sketches because merging is plain bin-count
// addition, which keeps fleet shards bit-reproducible for any worker
// count. Memory is O(log(max/min)/e) regardless of the sample count,
// so per-client QoE metrics from thousands of sessions cost a few
// hundred bins instead of a buffered vector.
//
// Values must be non-negative (rates, delays, byte counts — every
// fleet metric); values below minTrackable collapse into a dedicated
// zero bin whose estimate is exactly 0.
type Sketch struct {
	// RelErr is the relative accuracy guarantee, fixed at creation.
	RelErr float64

	gamma   float64 // (1+RelErr)/(1-RelErr)
	lnGamma float64

	counts map[int]int64
	zeros  int64
	n      int64
	sum    float64
	min    float64
	max    float64
}

// minTrackable is the smallest magnitude the log bins resolve; smaller
// samples count as zero. Fleet metrics (Mbps, seconds) sit far above.
const minTrackable = 1e-9

// DefaultSketchErr is the relative error used when NewSketch is given
// a non-positive one: 1% — invisible next to seed-to-seed variance.
const DefaultSketchErr = 0.01

// NewSketch returns an empty sketch with the given relative error
// guarantee (non-positive means DefaultSketchErr).
func NewSketch(relErr float64) *Sketch {
	if relErr <= 0 {
		relErr = DefaultSketchErr
	}
	if relErr >= 1 {
		relErr = 0.99
	}
	gamma := (1 + relErr) / (1 - relErr)
	return &Sketch{
		RelErr:  relErr,
		gamma:   gamma,
		lnGamma: math.Log(gamma),
		counts:  make(map[int]int64, 128), // presized: ~O(log range) bins, avoids rehash growth on the fleet hot path
		min:     math.Inf(1),
		max:     math.Inf(-1),
	}
}

// Reset empties the sketch in place, keeping the bin map's backing
// storage (and the RelErr geometry) so a recycled sketch accumulates
// the next stream without rehashing. A reset sketch is
// indistinguishable from NewSketch(s.RelErr).
func (s *Sketch) Reset() {
	clear(s.counts)
	s.zeros = 0
	s.n = 0
	s.sum = 0
	s.min = math.Inf(1)
	s.max = math.Inf(-1)
}

// key returns the bin index covering x: the smallest k with
// gamma^k >= x, so bin k spans (gamma^(k-1), gamma^k].
func (s *Sketch) key(x float64) int {
	return int(math.Ceil(math.Log(x) / s.lnGamma))
}

// estimate returns the midpoint value of bin k; its relative distance
// to any sample in the bin is at most RelErr.
func (s *Sketch) estimate(k int) float64 {
	return 2 * math.Pow(s.gamma, float64(k)) / (s.gamma + 1)
}

// Add inserts one sample. Negative samples are clamped to zero (the
// metrics this sketch serves are non-negative by construction).
func (s *Sketch) Add(x float64) {
	if math.IsNaN(x) {
		return
	}
	if x < 0 {
		x = 0
	}
	s.n++
	s.sum += x
	if x < s.min {
		s.min = x
	}
	if x > s.max {
		s.max = x
	}
	if x < minTrackable {
		s.zeros++
		return
	}
	s.counts[s.key(x)]++
}

// Merge folds o into s. Both sketches must have been created with the
// same RelErr; merging is exact (the merged sketch equals the sketch
// of the concatenated streams), which is what makes sharded fleet
// statistics independent of the worker count. Merge panics when
// CanMerge reports false.
func (s *Sketch) Merge(o *Sketch) {
	if !s.CanMerge(o) {
		panic("stats: merging sketches with different relative errors")
	}
	if o == nil || o.n == 0 {
		return
	}
	for k, c := range o.counts {
		s.counts[k] += c
	}
	s.zeros += o.zeros
	s.n += o.n
	s.sum += o.sum
	if o.min < s.min {
		s.min = o.min
	}
	if o.max > s.max {
		s.max = o.max
	}
}

// CanMerge reports whether s.Merge(o) is defined: o holds no samples,
// or s exists and shares o's RelErr. Callers merging sketches decoded
// from outside the process check it first.
func (s *Sketch) CanMerge(o *Sketch) bool {
	return o == nil || o.n == 0 || (s != nil && s.RelErr == o.RelErr)
}

// N returns the number of samples added.
func (s *Sketch) N() int64 { return s.n }

// Sum returns the exact running sum of the samples.
func (s *Sketch) Sum() float64 { return s.sum }

// Mean returns the exact sample mean (the sum is tracked exactly).
func (s *Sketch) Mean() float64 {
	if s.n == 0 {
		return math.NaN()
	}
	return s.sum / float64(s.n)
}

// Min and Max return the exact extremes.
func (s *Sketch) Min() float64 {
	if s.n == 0 {
		return math.NaN()
	}
	return s.min
}

// Max returns the exact largest sample.
func (s *Sketch) Max() float64 {
	if s.n == 0 {
		return math.NaN()
	}
	return s.max
}

// Quantile returns an estimate of the q-th quantile (q in [0,1]): the
// value returned is within RelErr (relatively) of the sample that
// holds rank ceil(q*n) in the sorted stream. Estimates are clamped to
// the exact observed [Min, Max].
func (s *Sketch) Quantile(q float64) float64 {
	if s.n == 0 {
		return math.NaN()
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := int64(math.Ceil(q * float64(s.n)))
	if rank < 1 {
		rank = 1
	}
	if rank <= s.zeros {
		return 0
	}
	keys := make([]int, 0, len(s.counts))
	for k := range s.counts {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	cum := s.zeros
	for _, k := range keys {
		cum += s.counts[k]
		if cum >= rank {
			est := s.estimate(k)
			if est < s.min {
				est = s.min
			}
			if est > s.max {
				est = s.max
			}
			return est
		}
	}
	return s.max
}

// Median returns the 0.5 quantile estimate.
func (s *Sketch) Median() float64 { return s.Quantile(0.5) }

// Bins returns the number of occupied log bins — the sketch's actual
// memory footprint, asserted O(log range) by tests.
func (s *Sketch) Bins() int { return len(s.counts) }
