package netem

import (
	"reflect"
	"testing"
	"time"

	"repro/internal/packet"
	"repro/internal/sim"
)

// treeAddr numbers tree-test clients 10.0.0.1 upward.
func treeAddr(i int) [4]byte { return [4]byte{10, 0, 0, byte(i + 1)} }

// testTreeConfig is buildTestTree's lossless shape.
var testTreeConfig = TreeConfig{
	Access:        Tier{Down: 8 * Mbps, Up: 8 * Mbps, Delay: 2 * time.Millisecond, Queue: 1 << 20},
	Agg:           Tier{Down: 80 * Mbps, Up: 80 * Mbps, Delay: 1 * time.Millisecond, Queue: 1 << 20},
	Core:          Tier{Down: 800 * Mbps, Up: 800 * Mbps, Delay: 5 * time.Millisecond, Queue: 1 << 20},
	ClientsPerAgg: 2,
}

// buildTestTree attaches n collector clients under a lossless tree
// with 2 clients per aggregation link and round rates for exact
// timing math.
func buildTestTree(sch *sim.Scheduler, n int) (*Tree, *collector, []*collector) {
	server := &collector{sch: sch}
	tr := NewTree(sch, testTreeConfig, server)
	clients := make([]*collector, n)
	for i := range clients {
		clients[i] = &collector{sch: sch}
		tr.Attach(treeAddr(i), clients[i])
	}
	return tr, server, clients
}

// TestTreeRoutesDownstreamPerClient: a packet injected at the core
// reaches exactly the addressed client, traversing that client's
// aggregation group and access link (counters prove the path).
func TestTreeRoutesDownstreamPerClient(t *testing.T) {
	sch := sim.NewScheduler(1)
	tr, _, clients := buildTestTree(sch, 5)
	if w := tr.Width(Agg); w != 3 {
		t.Fatalf("5 clients at 2/agg: groups = %d, want 3", w)
	}
	if w := tr.Width(Access); w != 5 {
		t.Fatalf("5 clients: access links = %d, want 5", w)
	}
	tr.Down(Core, 0).Send(segTo(treeAddr(2), 1000))
	sch.Run()
	for i, c := range clients {
		want := 0
		if i == 2 {
			want = 1
		}
		if len(c.segs) != want {
			t.Fatalf("client %d got %d packets, want %d", i, len(c.segs), want)
		}
	}
	if tr.Down(Core, 0).Sent != 1 || tr.Down(Agg, 1).Sent != 1 || tr.Down(Access, 2).Sent != 1 {
		t.Fatalf("tier counters core=%d agg1=%d access2=%d, want 1/1/1",
			tr.Down(Core, 0).Sent, tr.Down(Agg, 1).Sent, tr.Down(Access, 2).Sent)
	}
	if tr.Down(Agg, 0).Sent != 0 || tr.Down(Access, 0).Sent != 0 {
		t.Fatal("packet leaked into a foreign aggregation group")
	}
	if tr.Unrouted() != 0 {
		t.Fatalf("Unrouted = %d", tr.Unrouted())
	}
}

// TestTreeDownstreamTiming: end-to-end latency is the sum of the three
// serialization times plus the three propagation delays — the hops
// genuinely chain rather than short-circuit.
func TestTreeDownstreamTiming(t *testing.T) {
	sch := sim.NewScheduler(1)
	tr, _, clients := buildTestTree(sch, 1)
	seg := segTo(treeAddr(0), 960) // WireLen 1000 bytes
	tr.Down(Core, 0).Send(seg)
	sch.Run()
	if len(clients[0].at) != 1 {
		t.Fatalf("client got %d packets", len(clients[0].at))
	}
	wire := seg.WireLen()
	want := (800 * Mbps).TxTime(wire) + 5*time.Millisecond +
		(80 * Mbps).TxTime(wire) + 1*time.Millisecond +
		(8 * Mbps).TxTime(wire) + 2*time.Millisecond
	if got := clients[0].at[0]; got != want {
		t.Fatalf("arrival at %v, want %v", got, want)
	}
	if rtt := testTreeConfig.BaseRTT(); rtt != 16*time.Millisecond {
		t.Fatalf("BaseRTT = %v, want 16ms", rtt)
	}
}

// TestTreeOneClientPerAgg: with one client per aggregation link the
// aggregation tier has no Switch — each link feeds its access link
// directly — and a Reset tree re-wires recycled links the same way.
func TestTreeOneClientPerAgg(t *testing.T) {
	sch := sim.NewScheduler(1)
	cfg := testTreeConfig
	cfg.ClientsPerAgg = 1
	tr := NewTree(sch, cfg, &collector{sch: sch})
	for round := 0; round < 2; round++ {
		clients := []*collector{{sch: sch}, {sch: sch}}
		for i, c := range clients {
			tr.Attach(treeAddr(i), c)
		}
		if tr.Down(Agg, 1).dst != Receiver(tr.Down(Access, 1)) {
			t.Fatalf("round %d: aggregation link delivers to %T, want its access link", round, tr.Down(Agg, 1).dst)
		}
		tr.Down(Core, 0).Send(segTo(treeAddr(1), 100))
		sch.Run()
		if len(clients[0].segs) != 0 || len(clients[1].segs) != 1 || tr.Width(Agg) != 2 {
			t.Fatalf("round %d: clients got %d/%d over %d groups, want 0/1 over 2",
				round, len(clients[0].segs), len(clients[1].segs), tr.Width(Agg))
		}
		sch.Reset(1)
		tr.Reset()
	}
}

// TestTreeUpstreamReachesServer: a client transmitting on its access
// uplink reaches the server through its aggregation and core uplinks.
func TestTreeUpstreamReachesServer(t *testing.T) {
	sch := sim.NewScheduler(1)
	server := &collector{sch: sch}
	tr := NewTree(sch, TreeConfig{ClientsPerAgg: 2}, server)
	client := &collector{sch: sch}
	up := tr.Attach(treeAddr(0), client)
	seg := &packet.Segment{Flow: packet.Flow{
		Src: packet.Endpoint{Addr: treeAddr(0), Port: 4000},
		Dst: packet.EP(203, 0, 113, 10, 80),
	}}
	up.Send(seg)
	sch.Run()
	if len(server.segs) != 1 {
		t.Fatalf("server got %d packets, want 1", len(server.segs))
	}
	if tr.Up(Agg, 0).Sent != 1 || tr.Up(Core, 0).Sent != 1 {
		t.Fatalf("uplink counters agg=%d core=%d, want 1/1", tr.Up(Agg, 0).Sent, tr.Up(Core, 0).Sent)
	}
}

// TestTreeUnroutedAccounting: packets to unattached addresses are
// counted, not delivered, at whichever switch dead-ends them.
func TestTreeUnroutedAccounting(t *testing.T) {
	sch := sim.NewScheduler(1)
	tr, _, clients := buildTestTree(sch, 2)
	tr.Down(Core, 0).Send(segTo([4]byte{10, 9, 9, 9}, 100))
	sch.Run()
	if tr.Unrouted() != 1 {
		t.Fatalf("Unrouted = %d, want 1", tr.Unrouted())
	}
	if len(clients[0].segs)+len(clients[1].segs) != 0 {
		t.Fatal("unrouted packet was delivered")
	}
}

// TestTreeTapsAttachAtEveryTier: the same capture tap machinery the
// flat topologies use observes any tree hop.
func TestTreeTapsAttachAtEveryTier(t *testing.T) {
	sch := sim.NewScheduler(1)
	tr, _, _ := buildTestTree(sch, 3)
	var core, agg0, acc2 int
	tr.Down(Core, 0).AddTap(tapFunc(func(time.Duration, *packet.Segment) { core++ }))
	tr.Down(Agg, 0).AddTap(tapFunc(func(time.Duration, *packet.Segment) { agg0++ }))
	tr.Down(Access, 2).AddTap(tapFunc(func(time.Duration, *packet.Segment) { acc2++ }))
	tr.Down(Core, 0).Send(segTo(treeAddr(0), 100)) // group 0
	tr.Down(Core, 0).Send(segTo(treeAddr(2), 100)) // group 1
	sch.Run()
	if core != 2 || agg0 != 1 || acc2 != 1 {
		t.Fatalf("taps saw core=%d agg0=%d access2=%d, want 2/1/1", core, agg0, acc2)
	}
}

// tapFunc adapts a function to the Tap interface for tests.
type tapFunc func(time.Duration, *packet.Segment)

func (f tapFunc) Capture(at time.Duration, seg *packet.Segment) { f(at, seg) }

// TestTreeDroppedAtTier: an undersized access queue drops there and
// only there, and the per-tier accounting attributes it correctly.
func TestTreeDroppedAtTier(t *testing.T) {
	sch := sim.NewScheduler(1)
	server := &collector{sch: sch}
	cfg := TreeConfig{
		Access: Tier{Down: 1 * Mbps, Up: 1 * Mbps, Delay: time.Millisecond, Queue: 1500},
	}
	tr := NewTree(sch, cfg, server)
	client := &collector{sch: sch}
	tr.Attach(treeAddr(0), client)
	for i := 0; i < 10; i++ {
		tr.Down(Core, 0).Send(segTo(treeAddr(0), 1460))
	}
	sch.Run()
	core, _ := tr.DroppedAtTier(Core)
	agg, _ := tr.DroppedAtTier(Agg)
	access, _ := tr.DroppedAtTier(Access)
	if core != 0 || agg != 0 {
		t.Fatalf("drops above the bottleneck tier: core=%d agg=%d", core, agg)
	}
	if access == 0 {
		t.Fatal("tight access queue dropped nothing")
	}
	if got := len(client.segs) + access; got != 10 {
		t.Fatalf("delivered+dropped = %d, want 10", got)
	}
}

// TestProfileTreeShape pins NewProfileTree's one-tier wiring: a lone
// client hangs straight off the server's link, many clients share its
// queue through a Switch, upstream loss follows UpLossRate, the
// profile's AQM runs on both directions (fleet tiers keep it
// downstream only), and Reset reproduces a fresh build.
func TestProfileTreeShape(t *testing.T) {
	prof := Profile{Name: "test", Down: 8 * Mbps, Up: 8 * Mbps, RTT: 10 * time.Millisecond}

	t.Run("one client is direct", func(t *testing.T) {
		sch := sim.NewScheduler(1)
		client := &collector{sch: sch}
		tr := NewProfileTree(sch, prof, 1, &collector{sch: sch})
		tr.Attach([4]byte{10, 0, 0, 1}, client)
		if down := tr.Down(0, 0); down.dst != Receiver(client) {
			t.Fatalf("down link delivers to %T, want the client itself", down.dst)
		}
		// No Switch: even a stray address reaches the lone client.
		tr.Down(0, 0).Send(segTo([4]byte{10, 9, 9, 9}, 960))
		sch.Run()
		if len(client.segs) != 1 || tr.Unrouted() != 0 {
			t.Fatalf("client got %d, Unrouted %d; want 1 and 0", len(client.segs), tr.Unrouted())
		}
	})

	t.Run("many clients share one queue", func(t *testing.T) {
		sch := sim.NewScheduler(1)
		server := &collector{sch: sch}
		a, b := &collector{sch: sch}, &collector{sch: sch}
		tr := NewProfileTree(sch, prof, 2, server)
		addrA, addrB := [4]byte{10, 0, 0, 1}, [4]byte{10, 0, 0, 2}
		upA, upB := tr.Attach(addrA, a), tr.Attach(addrB, b)
		if upA != upB || upA != tr.Up(0, 0) {
			t.Fatal("Attach must hand back the shared up link")
		}
		down := tr.Down(0, 0)
		down.Send(segTo(addrA, 960))
		down.Send(segTo(addrB, 960))
		down.Send(segTo(addrA, 960))
		sch.Run()
		for _, s := range a.segs {
			if s.Dst.Addr != addrA {
				t.Fatalf("client a received a packet for %v", s.Dst.Addr)
			}
		}
		if len(a.segs) != 2 || len(b.segs) != 1 || len(server.segs) != 0 {
			t.Fatalf("a=%d b=%d server=%d, want 2/1/0", len(a.segs), len(b.segs), len(server.segs))
		}
		if tr.Unrouted() != 0 {
			t.Fatalf("Unrouted = %d, want 0", tr.Unrouted())
		}
		// Shared serialization: b's packet queued behind a's (1 ms
		// each at 8 Mbps) before the common 5 ms propagation.
		if a.at[0] != 6*time.Millisecond || b.at[0] != 7*time.Millisecond {
			t.Fatalf("arrivals %v / %v, want 6ms / 7ms (shared queue)", a.at[0], b.at[0])
		}
		down.Send(segTo([4]byte{10, 0, 0, 3}, 960)) // never attached
		sch.Run()
		if tr.Unrouted() != 1 || len(a.segs)+len(b.segs) != 3 {
			t.Fatalf("stray packet: Unrouted %d, delivered %d; want 1 and 3", tr.Unrouted(), len(a.segs)+len(b.segs))
		}
		defer func() {
			if recover() == nil {
				t.Fatal("attaching past the client count must panic")
			}
		}()
		tr.Attach([4]byte{10, 0, 0, 3}, &collector{sch: sch})
	})

	t.Run("upstream loss", func(t *testing.T) {
		for _, tc := range []struct {
			upLoss, want float64
		}{{0, 0.001}, {-1, 0}, {0.05, 0.05}} {
			p := prof
			p.Loss, p.UpLoss = 0.01, tc.upLoss
			tr := NewProfileTree(sim.NewScheduler(1), p, 1, nil)
			if got := tr.Up(0, 0).Loss(); got != (RandomLoss{Rate: tc.want}) {
				t.Fatalf("UpLoss %v: upstream loss %v, want rate %v", tc.upLoss, got, tc.want)
			}
			if got := tr.Down(0, 0).Loss(); got != (RandomLoss{Rate: 0.01}) {
				t.Fatalf("downstream loss %v, want rate 0.01", got)
			}
		}
	})

	t.Run("aqm placement", func(t *testing.T) {
		p := prof
		p.AQM = AqmConfig{Kind: AqmCoDel}
		tr := NewProfileTree(sim.NewScheduler(1), p, 1, nil)
		if tr.Down(0, 0).AQM() == nil || tr.Up(0, 0).AQM() == nil {
			t.Fatal("profile AQM must run on both directions")
		}
		cfg := testTreeConfig
		cfg.Agg.AQM = AqmConfig{Kind: AqmRED}
		cfg.Access.AQM = AqmConfig{Kind: AqmCoDel}
		fleet := NewTree(sim.NewScheduler(1), cfg, nil)
		fleet.Attach(treeAddr(0), &collector{})
		for _, k := range []int{Agg, Access} {
			if fleet.Down(k, 0).AQM() == nil || fleet.Up(k, 0).AQM() != nil {
				t.Fatalf("fleet tier %d: AQM must be downstream only", k)
			}
		}
	})

	t.Run("reset matches fresh", func(t *testing.T) {
		p := prof
		p.Loss, p.Queue, p.AQM = 0.05, 64<<10, AqmConfig{Kind: AqmCoDel}
		// drive attaches three clients, offers bursts both ways and
		// returns every arrival time plus the link counters.
		drive := func(sch *sim.Scheduler, tr *Tree, packets int) []time.Duration {
			server := tr.server.(*collector)
			server.at = server.at[:0]
			var clients []*collector
			var ups []*Link
			for i := 0; i < 3; i++ {
				c := &collector{sch: sch}
				clients = append(clients, c)
				ups = append(ups, tr.Attach(treeAddr(i), c))
			}
			for i := 0; i < packets; i++ {
				i := i
				sch.At(time.Duration(i)*200*time.Microsecond, func() {
					tr.Down(0, 0).Send(segTo(treeAddr(i%3), 960))
					ups[i%3].Send(seg(40))
				})
			}
			sch.Run()
			out := append([]time.Duration(nil), server.at...)
			for _, c := range clients {
				out = append(out, -1)
				out = append(out, c.at...)
			}
			d, u := tr.Down(0, 0), tr.Up(0, 0)
			for _, n := range []int{d.Sent, d.Dropped, d.AqmDrops, u.Sent, u.Dropped, tr.Unrouted()} {
				out = append(out, time.Duration(n))
			}
			return out
		}
		fresh := sim.NewScheduler(5)
		freshTree := NewProfileTree(fresh, p, 3, &collector{sch: fresh})
		want := drive(fresh, freshTree, 1500)
		if d := freshTree.Down(0, 0); d.AqmDrops == 0 || d.Dropped == d.AqmDrops {
			t.Fatalf("drops %d, AQM drops %d: the run must exercise both loss and AQM", d.Dropped, d.AqmDrops)
		}

		sch := sim.NewScheduler(9)
		tr := NewProfileTree(sch, p, 3, &collector{sch: sch})
		tr.Down(0, 0).SetRate(1 * Mbps) // a Dynamics mutation Reset must undo
		drive(sch, tr, 100)
		sch.Reset(5)
		tr.Reset()
		if got := drive(sch, tr, 1500); !reflect.DeepEqual(got, want) {
			t.Fatal("recycled profile tree diverged from a fresh build")
		}
	})
}
