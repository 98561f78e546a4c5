package stats

import (
	"encoding/binary"
	"errors"
	"math"
	"sort"
	"time"
)

// Binary codecs for Sketch and Binned. Distributed fleet runs ship
// per-cell results across process boundaries and must merge into the
// same bytes a single-process run produces, so the encoding is exact
// and canonical: every float crosses as its IEEE-754 bit pattern
// (math.Float64bits — no text formatting, no rounding), map keys are
// emitted in sorted order, and all integers are fixed-width
// little-endian. Encoding the same value twice yields identical bytes.

// ErrCodec reports a truncated or structurally invalid encoding.
var ErrCodec = errors.New("stats: truncated or corrupt encoding")

func appendU64(buf []byte, v uint64) []byte {
	return binary.LittleEndian.AppendUint64(buf, v)
}

func appendI64(buf []byte, v int64) []byte {
	return appendU64(buf, uint64(v))
}

func appendF64(buf []byte, v float64) []byte {
	return appendU64(buf, math.Float64bits(v))
}

// Decoder consumes the canonical encoding. Errors latch: after the
// first short read every subsequent call returns zero values, and Err
// reports the failure once at the end — call sites stay linear.
type Decoder struct {
	data []byte
	off  int
	bad  bool
}

// NewDecoder wraps data for decoding starting at offset 0.
func NewDecoder(data []byte) *Decoder { return &Decoder{data: data} }

// Err returns ErrCodec if any read ran past the input.
func (d *Decoder) Err() error {
	if d.bad {
		return ErrCodec
	}
	return nil
}

// Len returns the number of unconsumed bytes.
func (d *Decoder) Len() int { return len(d.data) - d.off }

// U64 reads one little-endian uint64.
func (d *Decoder) U64() uint64 {
	if d.bad || d.off+8 > len(d.data) {
		d.bad = true
		return 0
	}
	v := binary.LittleEndian.Uint64(d.data[d.off:])
	d.off += 8
	return v
}

// I64 reads one little-endian int64.
func (d *Decoder) I64() int64 { return int64(d.U64()) }

// F64 reads one float64 bit pattern.
func (d *Decoder) F64() float64 { return math.Float64frombits(d.U64()) }

// AppendBinary appends the canonical encoding of s to buf. A nil
// sketch encodes like an empty one with RelErr 0 (decode restores nil).
func (s *Sketch) AppendBinary(buf []byte) []byte {
	if s == nil {
		return appendF64(buf, 0)
	}
	buf = appendF64(buf, s.RelErr)
	buf = appendI64(buf, s.zeros)
	buf = appendI64(buf, s.n)
	buf = appendF64(buf, s.sum)
	buf = appendF64(buf, s.min)
	buf = appendF64(buf, s.max)
	keys := make([]int, 0, len(s.counts))
	for k := range s.counts {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	buf = appendI64(buf, int64(len(keys)))
	for _, k := range keys {
		buf = appendI64(buf, int64(k))
		buf = appendI64(buf, s.counts[k])
	}
	return buf
}

// DecodeSketch reads one sketch written by AppendBinary. The gamma
// terms are recomputed from the decoded RelErr exactly as NewSketch
// computes them, so a round-trip is indistinguishable from the
// original (reflect.DeepEqual-equal and merge-compatible). Only
// canonical encodings are accepted — bin keys strictly increasing,
// every count positive, and zeros plus the bin counts equal to n — so
// an accepted input re-encodes to the same bytes; anything else is
// ErrCodec.
func DecodeSketch(d *Decoder) (*Sketch, error) {
	bits := d.U64()
	if d.Err() != nil {
		return nil, d.Err()
	}
	if bits == 0 {
		return nil, nil
	}
	relErr := math.Float64frombits(bits)
	if !(relErr > 0 && relErr < 1) {
		return nil, ErrCodec
	}
	s := NewSketch(relErr)
	s.zeros = d.I64()
	s.n = d.I64()
	s.sum = d.F64()
	s.min = d.F64()
	s.max = d.F64()
	nk := d.I64()
	if d.Err() != nil {
		return nil, d.Err()
	}
	if nk < 0 || nk > int64(d.Len()/16) || s.zeros < 0 || s.zeros > s.n {
		return nil, ErrCodec
	}
	left := s.n - s.zeros // samples the bins must account for
	var prev int64
	for i := int64(0); i < nk; i++ {
		k := d.I64()
		c := d.I64()
		if (i > 0 && k <= prev) || c <= 0 || c > left {
			return nil, ErrCodec
		}
		prev = k
		left -= c
		s.counts[int(k)] = c
	}
	if left != 0 {
		return nil, ErrCodec
	}
	return s, d.Err()
}

// AppendBinary appends the canonical encoding of b to buf. A nil
// series encodes with width 0 (decode restores nil).
func (b *Binned) AppendBinary(buf []byte) []byte {
	if b == nil {
		return appendI64(buf, 0)
	}
	buf = appendI64(buf, int64(b.Width))
	buf = appendI64(buf, int64(len(b.Bins)))
	for _, v := range b.Bins {
		buf = appendF64(buf, v)
	}
	return buf
}

// DecodeBinned reads one binned series written by AppendBinary.
func DecodeBinned(d *Decoder) (*Binned, error) {
	width := time.Duration(d.I64())
	if d.Err() != nil {
		return nil, d.Err()
	}
	if width == 0 {
		return nil, nil
	}
	if width < 0 {
		return nil, ErrCodec
	}
	n := d.I64()
	if d.Err() != nil {
		return nil, d.Err()
	}
	if n < 0 || n > int64(d.Len()/8) {
		return nil, ErrCodec
	}
	b := &Binned{Width: width, Bins: make([]float64, n)}
	for i := range b.Bins {
		b.Bins[i] = d.F64()
	}
	return b, d.Err()
}
