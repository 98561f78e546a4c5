package tcp

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/netem"
	"repro/internal/packet"
	"repro/internal/sim"
)

// The invariant suite checks the conservation laws every TCP
// simulation must obey regardless of seed, loss pattern, pooling mode
// or transfer direction:
//
//   - byte conservation: in-order bytes accepted by the receiver never
//     exceed payload bytes the sender handed to the network, and match
//     exactly on loss-free links;
//   - no retransmissions, timeouts or duplicate ACKs on loss-free
//     links with unlimited queues;
//   - monotone receive offsets: the receiver's delivered-byte count
//     never decreases, and grows exactly by what the application
//     drains.
//
// It runs both endpoints of the stack (download and upload direction)
// and both memory regimes (pooled segments, as streaming captures use,
// and unpooled, as buffered captures use) across seeds; CI runs it
// under -race.

// invariantRun transfers total bytes from one host to the other and
// returns the sender and receiver connections after the horizon.
type invariantRun struct {
	sch      *sim.Scheduler
	snd, rcv *Conn
	// delivered tracks every OnReadable drain; monotonicity is
	// asserted at each step.
	delivered int64
	total     int
}

// runTransfer wires client and server over profile p and streams
// total bytes. upload flips the direction (client writes, server
// reads) so both ends of the stack exercise both roles. pooled
// attaches a shared segment pool, the fleet/session streaming regime.
func runTransfer(t *testing.T, seed int64, prof netem.Profile, total int, upload, pooled bool, horizon time.Duration) *invariantRun {
	t.Helper()
	sch := sim.NewScheduler(seed)
	client := NewHost(sch, 10, 0, 0, 1)
	server := NewHost(sch, 203, 0, 113, 10)
	tree := netem.NewProfileTree(sch, prof, 1, server)
	server.SetLink(tree.Down(0, 0))
	client.SetLink(tree.Attach(client.Addr().Addr, client))
	if pooled {
		pool := &packet.Pool{}
		client.SetSegmentPool(pool)
		server.SetSegmentPool(pool)
	}

	run := &invariantRun{sch: sch, total: total}
	drain := func(c *Conn) func() {
		return func() {
			got := int64(c.Discard(1 << 20))
			if got < 0 {
				t.Fatalf("Discard returned negative %d", got)
			}
			run.delivered += got
			if run.delivered > int64(total) {
				t.Fatalf("receiver drained %d bytes, more than the %d ever written", run.delivered, total)
			}
			if run.delivered != c.Stats.BytesReceived-int64(c.Buffered()) {
				t.Fatalf("drained %d != accepted %d - buffered %d: receive offsets not monotone/consistent",
					run.delivered, c.Stats.BytesReceived, c.Buffered())
			}
		}
	}
	server.Listen(80, Config{}, func(c *Conn) {
		if upload {
			run.rcv = c
			c.SetCallbacks(Callbacks{OnReadable: drain(c)})
		} else {
			run.snd = c
			c.SetCallbacks(Callbacks{OnConnected: func() {
				c.WriteZero(total)
				c.Close()
			}})
		}
	})
	cc := client.Dial(Config{}, packet.EP(203, 0, 113, 10, 80))
	if upload {
		run.snd = cc
		cc.SetCallbacks(Callbacks{OnConnected: func() {
			cc.WriteZero(total)
			cc.Close()
		}})
	} else {
		run.rcv = cc
		cc.SetCallbacks(Callbacks{OnReadable: drain(cc)})
	}
	sch.RunUntil(horizon)
	if run.snd == nil || run.rcv == nil {
		t.Fatal("connection never established")
	}
	return run
}

// checkConservation asserts the direction-independent laws.
func checkConservation(t *testing.T, r *invariantRun) {
	t.Helper()
	snd, rcv := r.snd.Stats, r.rcv.Stats
	if rcv.BytesReceived > snd.BytesSent {
		t.Fatalf("conservation violated: receiver accepted %d in-order bytes, sender only transmitted %d",
			rcv.BytesReceived, snd.BytesSent)
	}
	if rcv.BytesReceived > int64(r.total) {
		t.Fatalf("receiver accepted %d bytes of a %d-byte stream", rcv.BytesReceived, r.total)
	}
	if snd.BytesAcked > snd.BytesSent {
		t.Fatalf("sender saw %d bytes acked but transmitted %d", snd.BytesAcked, snd.BytesSent)
	}
	if r.delivered != rcv.BytesReceived-int64(r.rcv.Buffered()) {
		t.Fatalf("final drain %d != accepted %d - buffered %d", r.delivered, rcv.BytesReceived, r.rcv.Buffered())
	}
}

// lossFree is a clean pipe: no loss, unlimited queues — nothing may
// be retransmitted on it.
func lossFree() netem.Profile {
	return netem.Profile{Name: "clean", Down: 16 * netem.Mbps, Up: 4 * netem.Mbps,
		RTT: 50 * time.Millisecond, UpLoss: -1}
}

// TestInvariantsLossFree: exact byte conservation and a completely
// retransmission-free wire, for both directions, both pooling modes,
// across seeds.
func TestInvariantsLossFree(t *testing.T) {
	const total = 300 << 10
	for seed := int64(1); seed <= 5; seed++ {
		for _, upload := range []bool{false, true} {
			for _, pooled := range []bool{false, true} {
				name := fmt.Sprintf("seed=%d/upload=%v/pooled=%v", seed, upload, pooled)
				t.Run(name, func(t *testing.T) {
					r := runTransfer(t, seed, lossFree(), total, upload, pooled, 30*time.Second)
					checkConservation(t, r)
					if r.delivered != total {
						t.Fatalf("delivered %d of %d bytes on a loss-free link", r.delivered, total)
					}
					if got := r.rcv.Stats.BytesReceived; got != total {
						t.Fatalf("accepted %d of %d bytes", got, total)
					}
					s := r.snd.Stats
					if s.Retransmits != 0 || s.Timeouts != 0 || s.FastRetransmit != 0 {
						t.Fatalf("retransmissions on a loss-free link: %+v", s)
					}
					if s.BytesSent != int64(total) {
						t.Fatalf("sender transmitted %d payload bytes for a %d-byte stream", s.BytesSent, total)
					}
					if s.BytesAcked != int64(total) {
						t.Fatalf("only %d of %d bytes acked at the horizon", s.BytesAcked, total)
					}
				})
			}
		}
	}
}

// TestInvariantsUnderLoss: conservation and monotonicity must survive
// random loss, bursty Gilbert-Elliott loss and a tight queue, in both
// directions, across seeds. Every stream must still complete — the
// stack's job is reliability over a lossy pipe.
func TestInvariantsUnderLoss(t *testing.T) {
	const total = 120 << 10
	cases := map[string]netem.Profile{
		"random2pct": {Name: "lossy", Down: 8 * netem.Mbps, Up: 2 * netem.Mbps,
			RTT: 60 * time.Millisecond, Loss: 0.02},
		"tightqueue": {Name: "tight", Down: 8 * netem.Mbps, Up: 2 * netem.Mbps,
			RTT: 40 * time.Millisecond, Queue: 12 << 10, UpLoss: -1},
	}
	for name, prof := range cases {
		for seed := int64(1); seed <= 4; seed++ {
			for _, upload := range []bool{false, true} {
				t.Run(fmt.Sprintf("%s/seed=%d/upload=%v", name, seed, upload), func(t *testing.T) {
					r := runTransfer(t, seed, prof, total, upload, true, 120*time.Second)
					checkConservation(t, r)
					if r.delivered != total {
						t.Fatalf("stream did not complete under loss: %d of %d bytes (sender %+v)",
							r.delivered, total, r.snd.Stats)
					}
					// Loss direction saw drops → the sender must have
					// recovered through retransmission at least once
					// unless the network happened to drop nothing.
					if snd := r.snd.Stats; snd.BytesSent < int64(total) {
						t.Fatalf("sender transmitted %d < stream size %d", snd.BytesSent, total)
					}
				})
			}
		}
	}
}

// TestInvariantsBurstyLoss runs the Gilbert-Elliott model — the
// correlated-loss regime that merges ON-OFF cycles — and checks the
// same laws hold when losses cluster.
func TestInvariantsBurstyLoss(t *testing.T) {
	const total = 100 << 10
	for seed := int64(1); seed <= 4; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			sch := sim.NewScheduler(seed)
			client := NewHost(sch, 10, 0, 0, 1)
			server := NewHost(sch, 203, 0, 113, 10)
			prof := netem.Profile{Name: "bursty", Down: 8 * netem.Mbps, Up: 2 * netem.Mbps,
				RTT: 60 * time.Millisecond, UpLoss: -1}
			tree := netem.NewProfileTree(sch, prof, 1, server)
			tree.Down(0, 0).SetLoss(&netem.GilbertElliott{PGoodToBad: 0.02, PBadToGood: 0.3, PGood: 0.0005, PBad: 0.3})
			client.SetLink(tree.Attach(client.Addr().Addr, client))
			server.SetLink(tree.Down(0, 0))

			var srv *Conn
			server.Listen(80, Config{}, func(c *Conn) {
				srv = c
				c.SetCallbacks(Callbacks{OnConnected: func() {
					c.WriteZero(total)
					c.Close()
				}})
			})
			cc := client.Dial(Config{}, packet.EP(203, 0, 113, 10, 80))
			delivered := int64(0)
			cc.SetCallbacks(Callbacks{OnReadable: func() {
				delivered += int64(cc.Discard(1 << 20))
			}})
			sch.RunUntil(180 * time.Second)
			if srv == nil {
				t.Fatal("no connection")
			}
			if cc.Stats.BytesReceived > srv.Stats.BytesSent {
				t.Fatalf("conservation violated under bursty loss: %d > %d",
					cc.Stats.BytesReceived, srv.Stats.BytesSent)
			}
			if delivered != total {
				t.Fatalf("stream incomplete under bursty loss: %d of %d (server %+v)",
					delivered, total, srv.Stats)
			}
		})
	}
}
