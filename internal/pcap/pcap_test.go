package pcap

import (
	"bytes"
	"encoding/binary"
	"io"
	"runtime"
	"testing"
	"time"

	"repro/internal/packet"
)

func seg(seq uint32, payload []byte) *packet.Segment {
	return &packet.Segment{
		Flow:    packet.Flow{Src: packet.EP(10, 0, 0, 1, 5000), Dst: packet.EP(10, 0, 0, 2, 80)},
		Seq:     seq,
		Flags:   packet.FlagACK,
		Window:  65536,
		Payload: payload,
	}
}

func TestRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf, 0)
	if err != nil {
		t.Fatal(err)
	}
	times := []time.Duration{0, 1500 * time.Microsecond, 2 * time.Second}
	for i, ts := range times {
		if err := w.WritePacket(ts, seg(uint32(i), []byte("hello"))); err != nil {
			t.Fatal(err)
		}
	}
	if w.Records != 3 {
		t.Fatalf("Records = %d, want 3", w.Records)
	}

	r, err := NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if r.Link != LinkTypeRaw {
		t.Fatalf("link type %d, want %d", r.Link, LinkTypeRaw)
	}
	recs, err := r.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 3 {
		t.Fatalf("read %d records, want 3", len(recs))
	}
	for i, rec := range recs {
		if rec.TS != times[i] {
			t.Errorf("record %d ts %v, want %v", i, rec.TS, times[i])
		}
		s, err := packet.Parse(rec.Data)
		if err != nil {
			t.Fatalf("record %d does not parse: %v", i, err)
		}
		if s.Seq != uint32(i) || string(s.Payload) != "hello" {
			t.Errorf("record %d decoded wrong: %v", i, s)
		}
	}
}

func TestSnaplenTruncation(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf, 60)
	if err != nil {
		t.Fatal(err)
	}
	big := seg(1, bytes.Repeat([]byte{9}, 1000))
	if err := w.WritePacket(time.Second, big); err != nil {
		t.Fatal(err)
	}
	r, _ := NewReader(&buf)
	rec, err := r.Next()
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Data) != 60 {
		t.Fatalf("captured %d bytes, want 60", len(rec.Data))
	}
	if rec.OrigLen != 1040 {
		t.Fatalf("OrigLen %d, want 1040", rec.OrigLen)
	}
	s, err := packet.Parse(rec.Data)
	if err != nil {
		t.Fatal(err)
	}
	if s.PayloadLen != 1000 {
		t.Fatalf("parsed PayloadLen %d, want 1000 from IP header", s.PayloadLen)
	}
	if len(s.Payload) != 20 {
		t.Fatalf("captured payload %d, want 20", len(s.Payload))
	}
}

func TestGlobalHeaderFields(t *testing.T) {
	var buf bytes.Buffer
	if _, err := NewWriter(&buf, 96); err != nil {
		t.Fatal(err)
	}
	gh := buf.Bytes()
	if binary.LittleEndian.Uint32(gh[0:]) != 0xa1b2c3d4 {
		t.Error("bad magic")
	}
	if binary.LittleEndian.Uint16(gh[4:]) != 2 || binary.LittleEndian.Uint16(gh[6:]) != 4 {
		t.Error("bad version")
	}
	if binary.LittleEndian.Uint32(gh[16:]) != 96 {
		t.Error("bad snaplen")
	}
	if binary.LittleEndian.Uint32(gh[20:]) != LinkTypeRaw {
		t.Error("bad linktype")
	}
}

func TestBigEndianReader(t *testing.T) {
	// Hand-construct a big-endian capture with one empty record.
	var buf bytes.Buffer
	var gh [24]byte
	binary.BigEndian.PutUint32(gh[0:], 0xa1b2c3d4)
	binary.BigEndian.PutUint16(gh[4:], 2)
	binary.BigEndian.PutUint16(gh[6:], 4)
	binary.BigEndian.PutUint32(gh[16:], 65535)
	binary.BigEndian.PutUint32(gh[20:], LinkTypeRaw)
	buf.Write(gh[:])
	var rh [16]byte
	binary.BigEndian.PutUint32(rh[0:], 3)      // 3s
	binary.BigEndian.PutUint32(rh[4:], 500000) // .5s
	binary.BigEndian.PutUint32(rh[8:], 0)
	binary.BigEndian.PutUint32(rh[12:], 0)
	buf.Write(rh[:])

	r, err := NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := r.Next()
	if err != nil {
		t.Fatal(err)
	}
	if rec.TS != 3*time.Second+500*time.Millisecond {
		t.Fatalf("ts %v, want 3.5s", rec.TS)
	}
}

func TestBadMagic(t *testing.T) {
	if _, err := NewReader(bytes.NewReader(make([]byte, 24))); err != ErrFormat {
		t.Fatalf("err = %v, want ErrFormat", err)
	}
}

func TestTruncatedFile(t *testing.T) {
	var buf bytes.Buffer
	w, _ := NewWriter(&buf, 0)
	_ = w.WritePacket(0, seg(1, []byte("x")))
	full := buf.Bytes()
	// Cut inside the record body.
	r, err := NewReader(bytes.NewReader(full[:len(full)-1]))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Next(); err == nil || err == io.EOF {
		t.Fatalf("truncated record gave err=%v, want a wrapped read error", err)
	}
}

func TestEmptyCapture(t *testing.T) {
	var buf bytes.Buffer
	if _, err := NewWriter(&buf, 0); err != nil {
		t.Fatal(err)
	}
	r, err := NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	recs, err := r.ReadAll()
	if err != nil || len(recs) != 0 {
		t.Fatalf("empty capture: recs=%d err=%v", len(recs), err)
	}
}

// header builds a little-endian global header with the given snaplen
// followed by one record header claiming capLen bytes.
func header(snaplen, capLen, usec uint32) []byte {
	b := make([]byte, 40)
	binary.LittleEndian.PutUint32(b[0:], 0xa1b2c3d4)
	binary.LittleEndian.PutUint16(b[4:], 2)
	binary.LittleEndian.PutUint16(b[6:], 4)
	binary.LittleEndian.PutUint32(b[16:], snaplen)
	binary.LittleEndian.PutUint32(b[20:], LinkTypeRaw)
	binary.LittleEndian.PutUint32(b[28:], usec)
	binary.LittleEndian.PutUint32(b[32:], capLen)
	binary.LittleEndian.PutUint32(b[36:], capLen)
	return b
}

// A 40-byte file whose one record header claims a huge capLen must
// fail on the short read without allocating anything like capLen.
func TestHugeCapLenBoundedAlloc(t *testing.T) {
	file := header(0, 256<<20, 0)
	r, err := NewReader(bytes.NewReader(file))
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err = r.Next()
	runtime.ReadMemStats(&after)
	if err == nil || err == io.EOF {
		t.Fatalf("huge capLen on a 40-byte file gave err=%v, want a read error", err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > 64<<10 {
		t.Fatalf("Next allocated %d bytes for a record the input does not hold", got)
	}
}

func TestCapLenAboveSnapLen(t *testing.T) {
	file := append(header(96, 97, 0), make([]byte, 97)...)
	r, err := NewReader(bytes.NewReader(file))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Next(); err != ErrFormat {
		t.Fatalf("capLen above snaplen gave err=%v, want ErrFormat", err)
	}
	file = append(header(96, 96, 0), make([]byte, 96)...)
	if r, _ = NewReader(bytes.NewReader(file)); r == nil {
		t.Fatal("NewReader rejected a valid header")
	}
	if rec, err := r.Next(); err != nil || len(rec.Data) != 96 {
		t.Fatalf("capLen == snaplen: rec=%v err=%v", rec, err)
	}
}

func TestMicrosecondOverflow(t *testing.T) {
	r, err := NewReader(bytes.NewReader(header(0, 0, 1e6)))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Next(); err != ErrFormat {
		t.Fatalf("usec = 1e6 gave err=%v, want ErrFormat", err)
	}
}

// A record larger than the first read chunk is read whole.
func TestLargeRecord(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf, 0)
	if err != nil {
		t.Fatal(err)
	}
	data := make([]byte, 3*firstChunk+17)
	for i := range data {
		data[i] = byte(i)
	}
	if err := w.WriteRaw(time.Second, data, len(data)); err != nil {
		t.Fatal(err)
	}
	r, _ := NewReader(&buf)
	rec, err := r.Next()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(rec.Data, data) {
		t.Fatalf("read %d bytes back, want the %d written", len(rec.Data), len(data))
	}
}

// FuzzPcapReader feeds arbitrary bytes to the reader: it must not
// panic, and every record it accepts must survive a Writer round trip.
func FuzzPcapReader(f *testing.F) {
	var buf bytes.Buffer
	w, _ := NewWriter(&buf, 64)
	_ = w.WritePacket(1500*time.Microsecond, seg(1, []byte("hello")))
	_ = w.WritePacket(2*time.Second, seg(2, bytes.Repeat([]byte{7}, 100)))
	f.Add(buf.Bytes())
	f.Add(header(0, 256<<20, 0))
	f.Add(header(96, 97, 999999))
	f.Fuzz(func(t *testing.T, in []byte) {
		r, err := NewReader(bytes.NewReader(in))
		if err != nil {
			return
		}
		recs, _ := r.ReadAll()
		var out bytes.Buffer
		w, err := NewWriter(&out, r.SnapLen)
		if err != nil {
			t.Fatal(err)
		}
		for _, rec := range recs {
			if err := w.WriteRaw(rec.TS, rec.Data, rec.OrigLen); err != nil {
				t.Fatal(err)
			}
		}
		back, err := NewReader(&out)
		if err != nil {
			t.Fatal(err)
		}
		again, err := back.ReadAll()
		if err != nil {
			t.Fatalf("re-reading %d written records: %v", len(recs), err)
		}
		if len(again) != len(recs) {
			t.Fatalf("round trip gave %d records, want %d", len(again), len(recs))
		}
		for i, rec := range recs {
			got := again[i]
			if got.TS != rec.TS || got.OrigLen != rec.OrigLen || !bytes.Equal(got.Data, rec.Data) {
				t.Fatalf("record %d: round trip gave %+v, want %+v", i, got, rec)
			}
		}
	})
}

func BenchmarkWritePacket(b *testing.B) {
	w, _ := NewWriter(io.Discard, 0)
	s := seg(1, make([]byte, 1460))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = w.WritePacket(time.Duration(i), s)
	}
}
