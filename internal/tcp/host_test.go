package tcp

import (
	"testing"
	"time"

	"repro/internal/packet"
)

// TestHostResetClearsDemuxCache: a world recycled by Reset replays the
// same 4-tuple (ports restart at 40000), so the server's demux cache,
// primed by the first run, must not steer the second run's SYN to the
// first run's conn: the listener must accept it as a new one.
func TestHostResetClearsDemuxCache(t *testing.T) {
	p := newPair(1, noLossProfile())
	accepts := 0
	p.server.Listen(80, Config{}, func(c *Conn) {
		accepts++
		c.SetCallbacks(Callbacks{OnConnected: func() { c.Write([]byte("hello")) }})
	})
	run := func() string {
		var got []byte
		c := p.client.Dial(Config{}, packet.EP(203, 0, 113, 10, 80))
		c.SetCallbacks(Callbacks{OnReadable: func() {
			buf := make([]byte, 64)
			n := c.Read(buf)
			got = append(got, buf[:n]...)
		}})
		p.sch.RunUntil(time.Second)
		return string(got)
	}
	if got := run(); got != "hello" || accepts != 1 {
		t.Fatalf("first run: read %q, %d accepts", got, accepts)
	}
	p.sch.Reset(1)
	p.tree.Reset()
	p.server.Reset(203, 0, 113, 10)
	p.client.Reset(10, 0, 0, 1)
	p.client.SetLink(p.tree.Attach(p.client.Addr().Addr, p.client))
	if got := run(); got != "hello" || accepts != 2 {
		t.Fatalf("after Reset: read %q, %d accepts; want \"hello\" and 2", got, accepts)
	}
}

// TestHostDialPortWrapRefreshesDemuxCache: allocPort wraps from 65535
// back to 40000, so a Dial can overwrite a live 4-tuple the demux
// cache holds; the next segment on that 4-tuple belongs to the new
// conn.
func TestHostDialPortWrapRefreshesDemuxCache(t *testing.T) {
	p := newPair(1, noLossProfile())
	server := packet.EP(203, 0, 113, 10, 80)
	synAck := func(c *Conn) *packet.Segment {
		return &packet.Segment{
			Flow:   packet.Flow{Src: server, Dst: c.local},
			Seq:    5000,
			Ack:    c.iss + 1,
			Flags:  packet.FlagSYN | packet.FlagACK,
			Window: 65535,
		}
	}
	old := p.client.Dial(Config{}, server)
	p.client.Deliver(synAck(old)) // primes the cache with old's 4-tuple
	if old.ConnState() != StateEstablished {
		t.Fatalf("old conn state %v", old.ConnState())
	}
	p.client.nextPort = 65535
	if c := p.client.Dial(Config{}, server); c.local.Port != 65535 {
		t.Fatalf("dialed port %d, want 65535", c.local.Port)
	}
	reused := p.client.Dial(Config{}, server)
	if reused.local != old.local {
		t.Fatalf("wrapped dial got %v, want %v", reused.local, old.local)
	}
	p.client.Deliver(synAck(reused))
	if reused.ConnState() != StateEstablished {
		t.Fatalf("SYN-ACK for the reused 4-tuple missed its conn: state %v", reused.ConnState())
	}
}
