// Package trace is the measurement substrate: it records packets
// observed at the client vantage point (like tcpdump in the paper's
// methodology) and offers flow-level views plus TCP payload
// reassembly, so internal/analysis can recompute the paper's metrics
// from the captured segments alone. Trace is the buffering Sink; see
// sink.go for the streaming counterparts that avoid holding packets.
package trace

import (
	"fmt"
	"io"
	"sort"
	"time"

	"repro/internal/packet"
	"repro/internal/pcap"
)

// Dir is the packet direction relative to the measured client.
type Dir int

// Directions.
const (
	Down Dir = iota // server -> client (data)
	Up              // client -> server (acks, requests)
)

func (d Dir) String() string {
	if d == Down {
		return "down"
	}
	return "up"
}

// Record is one captured packet.
type Record struct {
	TS  time.Duration
	Dir Dir
	Seg *packet.Segment
}

// Trace is an append-only capture: the Sink that buffers everything,
// retained for pcap export and offline flow inspection. Flow-level
// accessors are backed by an incrementally built per-flow index, so
// repeated Flows/FlowRecords/DownBytes calls do not rescan Records.
//
// Records must be treated as append-only once any flow accessor has
// run: the staleness check only detects a shrunken slice, so
// truncating and refilling Records back to (or past) its indexed
// length would silently serve the old index. Replace the Trace, don't
// recycle it.
type Trace struct {
	Records []Record
	idx     flowIndex
}

// flowIndex accelerates the flow-level accessors. It is (re)built
// lazily: records appended since the last accessor call are folded in,
// and a shrunken Records slice triggers a full rebuild.
type flowIndex struct {
	n         int // Records[:n] have been indexed
	flows     []packet.Flow
	byFlow    map[packet.Flow]*flowLists
	downBytes int64
}

// flowLists holds the record indices of one Down flow and its reverse.
type flowLists struct {
	down, up []int32
}

func (t *Trace) reindex() {
	if t.idx.n > len(t.Records) {
		t.idx = flowIndex{} // Records were truncated; start over
	}
	if t.idx.byFlow == nil {
		t.idx.byFlow = make(map[packet.Flow]*flowLists)
	}
	for i := t.idx.n; i < len(t.Records); i++ {
		r := t.Records[i]
		if r.Dir == Down {
			f := r.Seg.Flow
			l := t.idx.byFlow[f]
			if l == nil {
				l = &flowLists{}
				t.idx.byFlow[f] = l
			}
			if len(l.down) == 0 {
				// First Down record of the flow (its reverse may have
				// been indexed already): enters the first-seen order.
				t.idx.flows = append(t.idx.flows, f)
			}
			l.down = append(l.down, int32(i))
			t.idx.downBytes += int64(r.Seg.Len())
			continue
		}
		// Up records are indexed under the Down flow they acknowledge.
		f := r.Seg.Flow.Reverse()
		l := t.idx.byFlow[f]
		if l == nil {
			l = &flowLists{}
			t.idx.byFlow[f] = l
			// Not appended to flows: Flows() lists Down flows only.
		}
		l.up = append(l.up, int32(i))
	}
	t.idx.n = len(t.Records)
}

// Capture implements Sink: it appends one record.
func (t *Trace) Capture(at time.Duration, d Dir, seg *packet.Segment) {
	t.Records = append(t.Records, Record{TS: at, Dir: d, Seg: seg})
}

// Close implements Sink.
func (t *Trace) Close() error { return nil }

// Tap returns a capture tap for the given direction, to be attached to
// the corresponding netem link.
func (t *Trace) Tap(d Dir) TapDir { return SinkTap(t, d) }

// Len returns the number of captured packets.
func (t *Trace) Len() int { return len(t.Records) }

// Duration returns the timestamp of the last record.
func (t *Trace) Duration() time.Duration {
	if len(t.Records) == 0 {
		return 0
	}
	return t.Records[len(t.Records)-1].TS
}

// DownBytes sums payload bytes in the Down direction.
func (t *Trace) DownBytes() int64 {
	t.reindex()
	return t.idx.downBytes
}

// Flows returns the distinct Down-direction flows in first-seen order.
func (t *Trace) Flows() []packet.Flow {
	t.reindex()
	if len(t.idx.flows) == 0 {
		return nil
	}
	out := make([]packet.Flow, len(t.idx.flows))
	copy(out, t.idx.flows)
	return out
}

// FlowRecords returns the records of one Down flow (data) or its
// reverse (acks), in capture order.
func (t *Trace) FlowRecords(f packet.Flow, d Dir) []Record {
	t.reindex()
	l := t.idx.byFlow[f]
	if l == nil {
		return nil
	}
	ids := l.down
	if d == Up {
		ids = l.up
	}
	if len(ids) == 0 {
		return nil
	}
	out := make([]Record, len(ids))
	for i, id := range ids {
		out[i] = t.Records[id]
	}
	return out
}

// WritePcap serializes the capture as a libpcap file.
func (t *Trace) WritePcap(w io.Writer, snaplen int) error {
	pw, err := pcap.NewWriter(w, snaplen)
	if err != nil {
		return err
	}
	for _, r := range t.Records {
		if err := pw.WritePacket(r.TS, r.Seg); err != nil {
			return fmt.Errorf("trace: record at %v: %w", r.TS, err)
		}
	}
	return nil
}

// ReadPcap loads a capture produced by WritePcap (or tcpdump with raw
// IP linktype). clientAddr identifies the measurement vantage point so
// directions can be restored.
func ReadPcap(r io.Reader, clientAddr [4]byte) (*Trace, error) {
	t := &Trace{}
	if err := StreamPcap(r, clientAddr, t); err != nil {
		return nil, err
	}
	return t, nil
}

// Reassemble rebuilds the in-order payload byte stream of one Down
// flow up to maxBytes, using sequence numbers (duplicates collapse,
// gaps stop reassembly). Snaplen-truncated payloads contribute the
// bytes that were captured; missing tails render as zeros, mirroring
// what a real trace analyzer can recover.
func (t *Trace) Reassemble(f packet.Flow, maxBytes int) []byte {
	type piece struct {
		seq     uint32
		payload []byte
		length  int
	}
	var pieces []piece
	var base uint32
	haveBase := false
	for _, r := range t.FlowRecords(f, Down) {
		if r.Seg.HasFlag(packet.FlagSYN) {
			base = r.Seg.Seq + 1
			haveBase = true
			continue
		}
		if r.Seg.Len() == 0 {
			continue
		}
		if !haveBase {
			base = r.Seg.Seq
			haveBase = true
		}
		pieces = append(pieces, piece{seq: r.Seg.Seq, payload: r.Seg.Payload, length: r.Seg.Len()})
	}
	if len(pieces) == 0 {
		return nil
	}
	sort.SliceStable(pieces, func(i, j int) bool {
		return int32(pieces[i].seq-pieces[j].seq) < 0
	})
	out := make([]byte, 0, maxBytes)
	next := base
	for _, p := range pieces {
		off := int32(p.seq - next)
		if off+int32(p.length) <= 0 {
			continue // fully duplicate
		}
		if off > 0 {
			break // gap: cannot reassemble past it
		}
		skip := int(-off)
		take := p.length - skip
		if take <= 0 {
			continue
		}
		chunk := make([]byte, take)
		if p.payload != nil && skip < len(p.payload) {
			copy(chunk, p.payload[skip:])
		}
		out = append(out, chunk...)
		next += uint32(take)
		if len(out) >= maxBytes {
			return out[:maxBytes]
		}
	}
	return out
}

// DownloadPoint is one step of the cumulative download curve.
type DownloadPoint struct {
	TS    time.Duration
	Bytes int64
}

// DownloadSeries returns the cumulative payload bytes over time across
// all Down flows — the "Download Amount" axis of Figures 2, 6, 7, 10.
func (t *Trace) DownloadSeries() []DownloadPoint {
	var out []DownloadPoint
	var total int64
	for _, r := range t.Records {
		if r.Dir != Down || r.Seg.Len() == 0 {
			continue
		}
		total += int64(r.Seg.Len())
		out = append(out, DownloadPoint{TS: r.TS, Bytes: total})
	}
	return out
}

// WindowPoint is one advertised-window observation from a client ACK.
type WindowPoint struct {
	TS     time.Duration
	Window int
}

// ReceiveWindowSeries extracts the client's advertised receive window
// over time (Figures 2(b) and 6(a)): the Window field of Up packets.
func (t *Trace) ReceiveWindowSeries() []WindowPoint {
	var out []WindowPoint
	for _, r := range t.Records {
		if r.Dir != Up {
			continue
		}
		out = append(out, WindowPoint{TS: r.TS, Window: r.Seg.Window})
	}
	return out
}
