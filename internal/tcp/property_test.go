package tcp

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/netem"
	"repro/internal/packet"
)

// Property: transfers complete with the correct byte count for any
// combination of loss rate (< 10%), receive buffer and transfer size.
// This is the stack's core integrity invariant under adversity.
func TestPropertyTransferCompletes(t *testing.T) {
	f := func(seedRaw uint32, lossRaw, bufRaw, sizeRaw uint16) bool {
		loss := float64(lossRaw%80) / 1000 // 0 - 7.9%
		recvBuf := 64<<10 + int(bufRaw%8)*128<<10
		size := 64<<10 + int(sizeRaw%16)*64<<10
		p := newPair(int64(seedRaw)+1, noLossProfile())
		p.down.SetLoss(netem.RandomLoss{Rate: loss})
		p.server.Listen(80, Config{}, func(c *Conn) {
			c.SetCallbacks(Callbacks{OnConnected: func() { c.WriteZero(size) }})
		})
		c := p.client.Dial(Config{RecvBuf: recvBuf}, packet.EP(203, 0, 113, 10, 80))
		got := 0
		c.SetCallbacks(Callbacks{OnReadable: func() { got += c.Discard(1 << 30) }})
		p.sch.RunUntil(5 * time.Minute)
		return got == size
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestTailSegmentLossDeadlock is the deterministic regression for a
// stall the property above caught: after an RTO rollback clamps sndNxt
// to sndUna, an ack jumping past the rolled-back sndNxt made
// restartRTO believe nothing was outstanding and disarm the timer;
// the lone retransmitted tail segment then armed nothing either
// (transmitData checks before sndNxt advances). If that segment was
// lost, the connection sat forever with an empty event queue. The
// inputs replay the exact quick.Check counterexample.
func TestTailSegmentLossDeadlock(t *testing.T) {
	for _, tc := range []struct {
		seed      int64
		loss      float64
		buf, size int
	}{
		{0xc0930f7b + 1, 0.060, 64<<10 + 5*128<<10, 64<<10 + 3*64<<10},
		{0xe4097634 + 1, 0.075, 64<<10 + 3*128<<10, 64<<10 + 12*64<<10},
	} {
		p := newPair(tc.seed, noLossProfile())
		p.down.SetLoss(netem.RandomLoss{Rate: tc.loss})
		p.server.Listen(80, Config{}, func(c *Conn) {
			c.SetCallbacks(Callbacks{OnConnected: func() { c.WriteZero(tc.size) }})
		})
		c := p.client.Dial(Config{RecvBuf: tc.buf}, packet.EP(203, 0, 113, 10, 80))
		got := 0
		c.SetCallbacks(Callbacks{OnReadable: func() { got += c.Discard(1 << 30) }})
		p.sch.RunUntil(5 * time.Minute)
		if got != tc.size {
			t.Fatalf("seed %#x: transfer stalled at %d/%d bytes (RTO timer lost)", tc.seed, got, tc.size)
		}
	}
}

// Property: the receive buffer never exceeds its capacity no matter
// how the reader paces, and the advertised window is never negative.
func TestPropertyFlowControlInvariant(t *testing.T) {
	f := func(seedRaw uint32, pullRaw uint16) bool {
		p := newPair(int64(seedRaw)+7, noLossProfile())
		p.down.SetLoss(netem.RandomLoss{Rate: 0.01})
		const cap = 256 << 10
		p.server.Listen(80, Config{}, func(c *Conn) {
			c.SetCallbacks(Callbacks{OnConnected: func() { c.WriteZero(2 << 20) }})
		})
		c := p.client.Dial(Config{RecvBuf: cap}, packet.EP(203, 0, 113, 10, 80))
		ok := true
		pull := int(pullRaw%64)*1024 + 512
		var tick func()
		tick = func() {
			if c.Buffered() > cap {
				ok = false
			}
			c.Discard(pull)
			p.sch.After(50*time.Millisecond, tick)
		}
		p.sch.After(0, tick)
		p.sch.RunUntil(30 * time.Second)
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// Property: every advertised window observed on the wire is between 0
// and the receive buffer capacity, under loss and slow reading.
func TestPropertyAdvertisedWindowBounds(t *testing.T) {
	p := newPair(99, noLossProfile())
	p.down.SetLoss(netem.RandomLoss{Rate: 0.02})
	const cap = 192 << 10
	type capture struct{ bad int }
	cp := &capture{}
	p.up.AddTap(tapFn(func(_ time.Duration, seg *packet.Segment) {
		if seg.Window < 0 || seg.Window > cap {
			cp.bad++
		}
	}))
	p.server.Listen(80, Config{}, func(c *Conn) {
		c.SetCallbacks(Callbacks{OnConnected: func() { c.WriteZero(4 << 20) }})
	})
	c := p.client.Dial(Config{RecvBuf: cap}, packet.EP(203, 0, 113, 10, 80))
	var tick func()
	tick = func() {
		c.Discard(32 << 10)
		p.sch.After(100*time.Millisecond, tick)
	}
	p.sch.After(0, tick)
	p.sch.RunUntil(time.Minute)
	if cp.bad != 0 {
		t.Fatalf("%d advertised windows out of [0, cap]", cp.bad)
	}
}

type tapFn func(time.Duration, *packet.Segment)

func (f tapFn) Capture(at time.Duration, s *packet.Segment) { f(at, s) }

// Property: Stats counters are internally consistent after arbitrary
// lossy transfers — acked bytes never exceed sent bytes, and received
// never exceeds what the peer sent.
func TestPropertyStatsConsistent(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 10; trial++ {
		p := newPair(int64(trial)+100, noLossProfile())
		p.down.SetLoss(netem.RandomLoss{Rate: rng.Float64() * 0.05})
		var srv *Conn
		size := 128<<10 + rng.Intn(1<<20)
		p.server.Listen(80, Config{}, func(c *Conn) {
			srv = c
			c.SetCallbacks(Callbacks{OnConnected: func() { c.WriteZero(size) }})
		})
		c := p.client.Dial(Config{RecvBuf: 512 << 10}, packet.EP(203, 0, 113, 10, 80))
		c.SetCallbacks(Callbacks{OnReadable: func() { c.Discard(1 << 30) }})
		p.sch.RunUntil(3 * time.Minute)
		if srv.Stats.BytesAcked > srv.Stats.BytesSent {
			t.Fatalf("trial %d: acked %d > sent %d", trial, srv.Stats.BytesAcked, srv.Stats.BytesSent)
		}
		if c.Stats.BytesReceived > srv.Stats.BytesSent {
			t.Fatalf("trial %d: received %d > sent %d", trial, c.Stats.BytesReceived, srv.Stats.BytesSent)
		}
		if srv.Stats.BytesAcked != int64(size) {
			t.Fatalf("trial %d: transfer incomplete: acked %d/%d", trial, srv.Stats.BytesAcked, size)
		}
		if srv.Stats.Retransmits > 0 && srv.Stats.FastRetransmit == 0 && srv.Stats.Timeouts == 0 {
			t.Fatalf("trial %d: retransmits without a recovery mechanism firing", trial)
		}
	}
}

// Reordering resilience: segments delivered out of order (via a jitter
// link) must still reassemble exactly.
func TestReorderingResilience(t *testing.T) {
	p := newPair(11, noLossProfile())
	// Simulate reordering by dropping, which forces retransmission
	// interleaving with newer data (our FIFO links cannot reorder
	// directly; loss-induced retransmits land "late" like reordered
	// segments do).
	p.down.SetLoss(netem.RandomLoss{Rate: 0.05})
	payload := make([]byte, 300<<10)
	for i := range payload {
		payload[i] = byte(i * 7)
	}
	p.server.Listen(80, Config{}, func(c *Conn) {
		c.SetCallbacks(Callbacks{OnConnected: func() { c.Write(payload) }})
	})
	c := p.client.Dial(Config{RecvBuf: 1 << 20}, packet.EP(203, 0, 113, 10, 80))
	var got []byte
	c.SetCallbacks(Callbacks{OnReadable: func() {
		buf := make([]byte, 64<<10)
		for {
			n := c.Read(buf)
			if n == 0 {
				break
			}
			got = append(got, buf[:n]...)
		}
	}})
	p.sch.RunUntil(3 * time.Minute)
	if len(got) != len(payload) {
		t.Fatalf("got %d/%d bytes", len(got), len(payload))
	}
	for i := range got {
		if got[i] != payload[i] {
			t.Fatalf("corruption at byte %d", i)
		}
	}
}
