package stats

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"time"
)

func TestSketchCodecRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	s := NewSketch(0.02)
	for i := 0; i < 5000; i++ {
		s.Add(math.Exp(rng.NormFloat64() * 6)) // span many orders of magnitude
	}
	for i := 0; i < 50; i++ {
		s.Add(0) // populate the zero bin
	}
	buf := s.AppendBinary(nil)
	if !reflect.DeepEqual(buf, s.AppendBinary(nil)) {
		t.Fatal("encoding is not canonical: two encodes differ")
	}
	d := NewDecoder(buf)
	got, err := DecodeSketch(d)
	if err != nil {
		t.Fatal(err)
	}
	if d.Len() != 0 {
		t.Fatalf("%d bytes left after decode", d.Len())
	}
	if !reflect.DeepEqual(got, s) {
		t.Fatalf("round-trip mismatch:\n got %+v\nwant %+v", got, s)
	}
	// The decoded sketch must be merge-compatible and answer the same
	// quantiles bit-for-bit.
	for _, q := range []float64{0, 0.25, 0.5, 0.9, 0.99, 1} {
		if got.Quantile(q) != s.Quantile(q) {
			t.Fatalf("quantile %v differs after round-trip", q)
		}
	}
}

func TestSketchCodecEmptyAndNil(t *testing.T) {
	empty := NewSketch(0.01)
	d := NewDecoder(empty.AppendBinary(nil))
	got, err := DecodeSketch(d)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, empty) {
		t.Fatalf("empty sketch round-trip mismatch: %+v", got)
	}

	var nilSketch *Sketch
	d = NewDecoder(nilSketch.AppendBinary(nil))
	got, err = DecodeSketch(d)
	if err != nil || got != nil {
		t.Fatalf("nil sketch round-trip = (%v, %v), want (nil, nil)", got, err)
	}
}

func TestBinnedCodecRoundTrip(t *testing.T) {
	b := NewBinned(250*time.Millisecond, 30*time.Second)
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 2000; i++ {
		b.Add(time.Duration(rng.Int63n(int64(30*time.Second))), rng.Float64()*1500)
	}
	buf := b.AppendBinary(nil)
	d := NewDecoder(buf)
	got, err := DecodeBinned(d)
	if err != nil {
		t.Fatal(err)
	}
	if d.Len() != 0 {
		t.Fatalf("%d bytes left after decode", d.Len())
	}
	if !reflect.DeepEqual(got, b) {
		t.Fatal("binned round-trip mismatch")
	}

	var nilBinned *Binned
	d = NewDecoder(nilBinned.AppendBinary(nil))
	got, err = DecodeBinned(d)
	if err != nil || got != nil {
		t.Fatalf("nil binned round-trip = (%v, %v), want (nil, nil)", got, err)
	}
}

// Concatenated encodings must decode in sequence — the per-cell stream
// format depends on it.
func TestCodecSequence(t *testing.T) {
	s := NewSketch(0.01)
	s.Add(3.5)
	b := NewBinned(time.Second, 10*time.Second)
	b.Add(2*time.Second, 7)
	buf := s.AppendBinary(nil)
	buf = b.AppendBinary(buf)
	buf = appendI64(buf, 42)

	d := NewDecoder(buf)
	gs, err := DecodeSketch(d)
	if err != nil {
		t.Fatal(err)
	}
	gb, err := DecodeBinned(d)
	if err != nil {
		t.Fatal(err)
	}
	if v := d.I64(); v != 42 || d.Err() != nil || d.Len() != 0 {
		t.Fatalf("trailing scalar = %d, err %v, left %d", v, d.Err(), d.Len())
	}
	if !reflect.DeepEqual(gs, s) || !reflect.DeepEqual(gb, b) {
		t.Fatal("sequence decode mismatch")
	}
}

func TestCodecTruncation(t *testing.T) {
	s := NewSketch(0.01)
	for i := 1; i <= 40; i++ {
		s.Add(float64(i))
	}
	full := s.AppendBinary(nil)
	for cut := 0; cut < len(full); cut += 7 {
		d := NewDecoder(full[:cut])
		if _, err := DecodeSketch(d); err == nil {
			t.Fatalf("truncation at %d/%d decoded without error", cut, len(full))
		}
	}
	// A corrupt count that implies more bytes than exist must error,
	// not allocate or hang.
	bad := append([]byte(nil), full...)
	for i := 0; i < 8; i++ {
		bad[48+i] = 0xff // overwrite the key-count field
	}
	if _, err := DecodeSketch(NewDecoder(bad)); err == nil {
		t.Fatal("absurd key count decoded without error")
	}
}

// rawSketch encodes a sketch field by field, so tests can build
// encodings AppendBinary never produces.
func rawSketch(relErr float64, zeros, n int64, bins ...int64) []byte {
	buf := appendF64(nil, relErr)
	buf = appendI64(buf, zeros)
	buf = appendI64(buf, n)
	for range 3 { // sum, min, max
		buf = appendF64(buf, 1)
	}
	buf = appendI64(buf, int64(len(bins)/2))
	for _, v := range bins {
		buf = appendI64(buf, v)
	}
	return buf
}

// TestDecodeSketchRejectsNonCanonical pins that only canonical
// encodings decode: every case here would otherwise decode into a
// sketch whose counts disagree with n or that re-encodes differently.
func TestDecodeSketchRejectsNonCanonical(t *testing.T) {
	if _, err := DecodeSketch(NewDecoder(rawSketch(0.01, 1, 4, 3, 1, 5, 2))); err != nil {
		t.Fatalf("canonical encoding rejected: %v", err)
	}
	for _, tc := range []struct {
		name string
		data []byte
	}{
		{"duplicate key", rawSketch(0.01, 1, 4, 3, 1, 3, 2)},
		{"descending keys", rawSketch(0.01, 1, 4, 5, 2, 3, 1)},
		{"negative zeros", rawSketch(0.01, -1, 2, 3, 3)},
		{"negative n", rawSketch(0.01, 0, -2, 3, -2)},
		{"negative count", rawSketch(0.01, 0, 1, 3, -1, 5, 2)},
		{"zero count", rawSketch(0.01, 1, 3, 3, 0, 5, 2)},
		{"counts short of n", rawSketch(0.01, 1, 5, 3, 1, 5, 2)},
		{"counts beyond n", rawSketch(0.01, 1, 3, 3, 1, 5, 2)},
		{"zeros beyond n", rawSketch(0.01, 4, 3)},
		{"negative zero relErr", rawSketch(math.Copysign(0, -1), 0, 0)},
		{"NaN relErr", rawSketch(math.NaN(), 0, 0)},
	} {
		if s, err := DecodeSketch(NewDecoder(tc.data)); err != ErrCodec {
			t.Errorf("%s: DecodeSketch = (%v, %v), want ErrCodec", tc.name, s, err)
		}
	}
}

// FuzzDecodeSketch checks that DecodeSketch never panics and that any
// input it accepts re-encodes to exactly the bytes it consumed.
func FuzzDecodeSketch(f *testing.F) {
	s := NewSketch(0.02)
	for _, x := range []float64{0, 0.5, 3, 3, 1e6} {
		s.Add(x)
	}
	f.Add(s.AppendBinary(nil))
	f.Add(NewSketch(0.01).AppendBinary(nil))
	f.Add((*Sketch)(nil).AppendBinary(nil))
	f.Add(rawSketch(0.01, 1, 4, 3, 1, 3, 2))
	f.Fuzz(func(t *testing.T, data []byte) {
		d := NewDecoder(data)
		got, err := DecodeSketch(d)
		if err != nil {
			return
		}
		used := data[:len(data)-d.Len()]
		if re := got.AppendBinary(nil); !reflect.DeepEqual(re, used) {
			t.Fatalf("accepted %x but re-encodes as %x", used, re)
		}
	})
}
