package netem

import (
	"testing"

	"repro/internal/packet"
	"repro/internal/sim"
)

// segTo builds a payload segment addressed to dst.
func segTo(dst [4]byte, n int) *packet.Segment {
	return &packet.Segment{
		Flow: packet.Flow{
			Src: packet.EP(203, 0, 113, 10, 80),
			Dst: packet.Endpoint{Addr: dst, Port: 4000},
		},
		PayloadLen: n,
	}
}

func TestSwitchRoutesByDestination(t *testing.T) {
	sch := sim.NewScheduler(1)
	a := &collector{sch: sch}
	b := &collector{sch: sch}
	sw := NewSwitch()
	addrA, addrB := [4]byte{10, 0, 0, 1}, [4]byte{10, 0, 0, 2}
	sw.Route(addrA, a)
	sw.Route(addrB, b)
	sw.Deliver(segTo(addrA, 100))
	sw.Deliver(segTo(addrB, 100))
	sw.Deliver(segTo(addrA, 100))
	if len(a.segs) != 2 || len(b.segs) != 1 {
		t.Fatalf("a got %d, b got %d; want 2 and 1", len(a.segs), len(b.segs))
	}
	if sw.Unrouted != 0 {
		t.Fatalf("Unrouted = %d for fully routed traffic", sw.Unrouted)
	}
}

func TestSwitchCountsUnrouted(t *testing.T) {
	sch := sim.NewScheduler(1)
	a := &collector{sch: sch}
	sw := NewSwitch()
	sw.Route([4]byte{10, 0, 0, 1}, a)
	for i := 0; i < 3; i++ {
		sw.Deliver(segTo([4]byte{10, 9, 9, 9}, 100))
	}
	if sw.Unrouted != 3 {
		t.Fatalf("Unrouted = %d, want 3", sw.Unrouted)
	}
	if len(a.segs) != 0 {
		t.Fatalf("routed receiver got %d stray packets", len(a.segs))
	}
}

// TestSwitchRouteOverwrite: re-registering an address replaces the
// receiver — the last route wins, with no duplicate delivery.
func TestSwitchRouteOverwrite(t *testing.T) {
	sch := sim.NewScheduler(1)
	oldR := &collector{sch: sch}
	newR := &collector{sch: sch}
	sw := NewSwitch()
	addr := [4]byte{10, 0, 0, 7}
	sw.Route(addr, oldR)
	sw.Route(addr, newR)
	sw.Deliver(segTo(addr, 100))
	if len(oldR.segs) != 0 {
		t.Fatal("overwritten route still delivered")
	}
	if len(newR.segs) != 1 {
		t.Fatalf("new route got %d packets, want 1", len(newR.segs))
	}
}

// TestSwitchCacheFollowsRoute: re-routing an address the last-hit
// cache holds sends the next packet to the new receiver.
func TestSwitchCacheFollowsRoute(t *testing.T) {
	sch := sim.NewScheduler(1)
	oldR := &collector{sch: sch}
	newR := &collector{sch: sch}
	sw := NewSwitch()
	addr := [4]byte{10, 0, 0, 7}
	sw.Route(addr, oldR)
	sw.Deliver(segTo(addr, 100)) // primes the cache with addr -> oldR
	sw.Route(addr, newR)
	sw.Deliver(segTo(addr, 100))
	if len(oldR.segs) != 1 || len(newR.segs) != 1 {
		t.Fatalf("old got %d, new got %d; want 1 and 1", len(oldR.segs), len(newR.segs))
	}
}

// TestSwitchResetClearsCache: after Reset a primed address is
// unrouted, not delivered through the cached route.
func TestSwitchResetClearsCache(t *testing.T) {
	sch := sim.NewScheduler(1)
	a := &collector{sch: sch}
	sw := NewSwitch()
	addr := [4]byte{10, 0, 0, 1}
	sw.Route(addr, a)
	sw.Deliver(segTo(addr, 100))
	sw.Reset()
	sw.Deliver(segTo(addr, 100))
	if len(a.segs) != 1 || sw.Unrouted != 1 {
		t.Fatalf("after Reset: receiver got %d, Unrouted = %d; want 1 and 1", len(a.segs), sw.Unrouted)
	}
}
