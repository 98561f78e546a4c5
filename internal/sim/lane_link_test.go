package sim_test

import (
	"testing"
	"time"

	"repro/internal/netem"
	"repro/internal/packet"
	"repro/internal/sim"
)

// TestLinkPumpStaysInLanes pins that netem.Link pump events ride the
// links' lanes: a two-hop send-and-deliver cycle with queueing on both
// hops never leaves an event in the heap or the wheel.
func TestLinkPumpStaysInLanes(t *testing.T) {
	s := sim.NewScheduler(1)
	check := func(when string) {
		t.Helper()
		if heap, wheel := s.QueueLens(); heap != 0 || wheel != 0 {
			t.Fatalf("%s: heap %d, wheel %d events; want both empty", when, heap, wheel)
		}
	}
	delivered := 0
	sink := netem.ReceiverFunc(func(*packet.Segment) {
		delivered++
		check("during delivery")
	})
	access := netem.NewLink(s, 10*netem.Mbps, 5*time.Millisecond, 0, nil, sink)
	core := netem.NewLink(s, 100*netem.Mbps, 20*time.Millisecond, 0, nil, access)
	const n = 50
	for i := 0; i < n; i++ {
		core.Send(&packet.Segment{PayloadLen: 1460})
	}
	check("after Send")
	if s.Pending() != 1 {
		t.Fatalf("Pending = %d after Send, want 1 (the core link's lane)", s.Pending())
	}
	s.Run()
	check("after Run")
	if delivered != n || s.Pending() != 0 || s.Now() == 0 {
		t.Fatalf("delivered %d of %d, Pending %d, clock %v", delivered, n, s.Pending(), s.Now())
	}
}
