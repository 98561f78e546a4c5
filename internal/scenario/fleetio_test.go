package scenario

import (
	"bytes"
	"encoding/binary"
	"io"
	"reflect"
	"runtime"
	"testing"
	"time"

	"repro/internal/runner"
	"repro/internal/stats"
)

// serFleet exercises every serialized field: an adaptive mix populates
// the playback sketches and RungSec, Exact retains the per-client
// vectors, and a ragged tail (clients not divisible by the group size)
// checks partial cells.
func serFleet(clients int) Fleet {
	return Fleet{
		Mix:      []MixEntry{{Player: AbrBuffer, Weight: 1}, {Player: AbrRate, Weight: 2}},
		Clients:  clients,
		Duration: 12 * time.Second,
		Arrival:  Arrival{Kind: Staggered, Window: 5 * time.Second},
		Seed:     23,
		Exact:    true,
	}
}

// TestFleetResultRoundTrip pins the exactness of the codec: marshal →
// unmarshal → reflect.DeepEqual across every sketch, binned series,
// vector and scalar field, and re-marshalling the decoded result
// reproduces the original bytes (the encoding is canonical).
func TestFleetResultRoundTrip(t *testing.T) {
	f := serFleet(70)
	res := RunFleet(runner.Options{Workers: 1}, f)

	data, err := res.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	got, err := UnmarshalFleetResult(data, f)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, res) {
		t.Fatalf("round-trip mismatch:\n got %+v\nwant %+v", got, res)
	}
	re, err := got.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(re, data) {
		t.Fatal("re-marshalling the decoded result changed the bytes")
	}

	// Without Exact the presence flag must round-trip to nil.
	f2 := serFleet(33)
	f2.Exact = false
	res2 := RunFleet(runner.Options{Workers: 1}, f2)
	data2, _ := res2.MarshalBinary()
	got2, err := UnmarshalFleetResult(data2, f2)
	if err != nil {
		t.Fatal(err)
	}
	if got2.Exact != nil {
		t.Fatal("Exact resurrected from a run that did not retain it")
	}
	if !reflect.DeepEqual(got2, res2) {
		t.Fatal("round-trip mismatch without Exact")
	}
}

func TestFleetResultCodecErrors(t *testing.T) {
	f := serFleet(33)
	res := RunFleet(runner.Options{Workers: 1}, f)
	data, _ := res.MarshalBinary()
	for _, cut := range []int{0, 7, 8, len(data) / 2, len(data) - 1} {
		if _, err := UnmarshalFleetResult(data[:cut], f); err == nil {
			t.Fatalf("truncation at %d decoded without error", cut)
		}
	}
	if _, err := UnmarshalFleetResult(append(data, 0), f); err == nil {
		t.Fatal("trailing garbage decoded without error")
	}
	bad := append([]byte(nil), data...)
	bad[0] ^= 0xff
	if _, err := UnmarshalFleetResult(bad, f); err == nil {
		t.Fatal("bad magic decoded without error")
	}
}

// TestFleetMergeSerializedCells is the distributed-protocol golden at
// the acceptance scale (1,000 clients outside -race): cells serialized
// in contiguous ranges across several streams — exactly what -distributed
// child processes emit — must merge into a result that is DeepEqual to
// AND byte-identical with a single-process run.
func TestFleetMergeSerializedCells(t *testing.T) {
	f := detFleet()
	f.Exact = true
	single := RunFleet(runner.Options{Workers: 1}, f)
	singleBytes, _ := single.MarshalBinary()

	cells := f.Cells()
	if cells < 3 {
		t.Fatalf("fleet too small to split: %d cells", cells)
	}
	// Uneven contiguous ranges, like child processes with ragged
	// splits (duplicate cuts collapse at small -race scales).
	cuts := []int{0, cells / 3, cells / 2, cells}
	var streams []*bytes.Buffer
	for i := 0; i+1 < len(cuts); i++ {
		if cuts[i] >= cuts[i+1] {
			continue
		}
		var buf bytes.Buffer
		if err := WriteFleetCells(&buf, runner.Options{Workers: 2}, f, cuts[i], cuts[i+1]); err != nil {
			t.Fatal(err)
		}
		streams = append(streams, &buf)
	}
	readers := make([]io.Reader, len(streams))
	for i, s := range streams {
		readers[i] = s
	}
	merged, err := MergeFleetCellStreams(f, readers...)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(merged, single) {
		t.Fatalf("merged serialized cells differ from single-process run:\nmerged: %s\nsingle: %s",
			merged.Render(), single.Render())
	}
	mergedBytes, _ := merged.MarshalBinary()
	if !bytes.Equal(mergedBytes, singleBytes) {
		t.Fatal("merged artifact bytes differ from single-process bytes")
	}

	// A stream that covers only part of the fleet must be rejected.
	var partial bytes.Buffer
	if err := WriteFleetCells(&partial, runner.Options{Workers: 1}, f, 0, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := MergeFleetCellStreams(f, &partial); err == nil {
		t.Fatal("partial coverage merged without error")
	}
}

func TestWriteFleetCellsValidatesRange(t *testing.T) {
	f := serFleet(70)
	var buf bytes.Buffer
	for _, r := range [][2]int{{-1, 1}, {0, 100}, {2, 2}, {3, 1}} {
		if err := WriteFleetCells(&buf, runner.Options{}, f, r[0], r[1]); err == nil {
			t.Fatalf("range %v accepted", r)
		}
	}
}

// cellStream frames results as the length-prefixed records
// WriteFleetCells emits.
func cellStream(cells ...*FleetResult) []byte {
	var out []byte
	for _, c := range cells {
		rec := c.AppendBinary(nil)
		out = binary.LittleEndian.AppendUint64(out, uint64(len(rec)))
		out = append(out, rec...)
	}
	return out
}

// foreignCells returns record streams whose second cell cannot merge
// into the first: a sketch with another relative error, a utilization
// series with another bin width, and a non-empty sketch following a
// nil one. Each used to panic inside MergeFleetCellStreams.
func foreignCells(f Fleet) map[string][]byte {
	f = f.withDefaults()
	other := f
	other.QuantErr = 2 * f.QuantErr
	other.UtilBin = 2 * f.UtilBin
	relErr := newFleetResult(f)
	relErr.RateMbps = newFleetResult(other).RateMbps
	relErr.RateMbps.Add(1)
	width := newFleetResult(f)
	width.CoreUtil = newFleetResult(other).CoreUtil
	nilFirst := newFleetResult(f)
	nilFirst.StartupSec = nil
	full := newFleetResult(f)
	full.StartupSec.Add(2)
	return map[string][]byte{
		"relative error": cellStream(newFleetResult(f), relErr),
		"bin width":      cellStream(newFleetResult(f), width),
		"nil sketch":     cellStream(nilFirst, full),
	}
}

// TestMergeFleetCellStreamsRejectsForeignCell pins that a well-formed
// but incompatible cell record is an error, not a panic in the parent.
func TestMergeFleetCellStreamsRejectsForeignCell(t *testing.T) {
	f := serFleet(40)
	if _, err := MergeFleetCellStreams(f, bytes.NewReader(cellStream(codecCell(f, 32), codecCell(f, 8)))); err != nil {
		t.Fatalf("compatible cells: %v", err)
	}
	for name, stream := range foreignCells(f) {
		if _, err := MergeFleetCellStreams(f, bytes.NewReader(stream)); err == nil {
			t.Errorf("%s: foreign cell merged without error", name)
		}
	}
}

// TestMergeFleetCellStreamsBoundsRecordAlloc pins that a length prefix
// is not trusted for the allocation: a stream that claims a 1 GiB
// record but ends after a few bytes fails having allocated little.
func TestMergeFleetCellStreamsBoundsRecordAlloc(t *testing.T) {
	stream := binary.LittleEndian.AppendUint64(nil, 1<<30)
	stream = append(stream, "short"...)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := MergeFleetCellStreams(serFleet(33), bytes.NewReader(stream))
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("truncated 1 GiB record merged without error")
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > 1<<20 {
		t.Fatalf("MergeFleetCellStreams allocated %d bytes for a record the stream does not hold", got)
	}
}

// codecCell builds a cell result with every serialized field
// populated, without running a simulation, so the codec fuzz targets
// start fuzzing at once.
func codecCell(f Fleet, clients int) *FleetResult {
	r := newFleetResult(f.withDefaults())
	r.Clients, r.Groups = clients, 1
	for i, sk := range []*stats.Sketch{r.RateMbps, r.StartupSec, r.RebufCount, r.RebufSec, r.SwitchCount, r.FetchedMbps, r.AggBurst, r.CoreBurst} {
		sk.Add(0)
		sk.Add(float64(i) + 0.5)
		sk.Add(float64(clients) * 3)
	}
	r.RungSec = []float64{1.5, 0, 2}
	for _, b := range []*stats.Binned{r.CoreUtil, r.AggUtil, r.AccessUtil, r.ConcurrencyDeltas} {
		b.Add(time.Second, float64(clients))
	}
	r.CoreOffered, r.CoreDropped, r.AggDropped = 100, 3, 1
	r.Downloaded, r.ActiveClients = 1<<20, clients
	r.Exact.RateMbps = []float64{1, 2}
	r.Exact.StartupSec = []float64{0.5}
	return r
}

// FuzzUnmarshalFleetResult checks that decoding arbitrary bytes never
// panics and that any accepted input re-marshals to the same bytes.
func FuzzUnmarshalFleetResult(f *testing.F) {
	fl := serFleet(40)
	f.Add(codecCell(fl, 40).AppendBinary(nil))
	noExact := codecCell(fl, 40)
	noExact.Exact = nil
	f.Add(noExact.AppendBinary(nil))
	f.Add(newFleetResult(fl.withDefaults()).AppendBinary(nil))
	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := UnmarshalFleetResult(data, fl)
		if err != nil {
			return
		}
		if re, _ := r.MarshalBinary(); !bytes.Equal(re, data) {
			t.Fatalf("accepted %d bytes but re-marshals to %d different bytes", len(data), len(re))
		}
	})
}

// FuzzMergeFleetCellStreams checks that merging arbitrary record
// streams never panics. The seeds are a two-stream split that merges
// and the foreign-cell crashers.
func FuzzMergeFleetCellStreams(f *testing.F) {
	fl := serFleet(40)
	f.Add(cellStream(codecCell(fl, 32)), cellStream(codecCell(fl, 8)))
	for _, name := range []string{"relative error", "bin width", "nil sketch"} {
		f.Add(foreignCells(fl)[name], []byte(nil))
	}
	f.Fuzz(func(t *testing.T, s1, s2 []byte) {
		_, _ = MergeFleetCellStreams(fl, bytes.NewReader(s1), bytes.NewReader(s2))
	})
}
