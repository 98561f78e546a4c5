package netem

import "repro/internal/packet"

// Switch routes delivered packets to receivers by destination address,
// letting many client hosts share one bottleneck link — the topology
// needed to study how concurrent streaming sessions interact (the
// aggregate-traffic experiments and the paper's future-work question
// about strategy-induced loss).
type Switch struct {
	routes map[[4]byte]Receiver
	// Last-hit route cache in front of routes: last is nil when empty,
	// and Route and Reset refresh or clear it.
	lastAddr [4]byte
	last     Receiver
	// Unrouted counts packets with no matching destination.
	Unrouted int
}

// NewSwitch returns an empty switch.
func NewSwitch() *Switch {
	return &Switch{routes: make(map[[4]byte]Receiver)}
}

// Reset drops every route and zeroes the unrouted counter, keeping
// the map's backing storage for reuse.
func (s *Switch) Reset() {
	clear(s.routes)
	s.last = nil
	s.Unrouted = 0
}

// Route registers the receiver for a destination address.
func (s *Switch) Route(addr [4]byte, r Receiver) {
	s.routes[addr] = r
	s.lastAddr, s.last = addr, r
}

// Deliver implements Receiver.
func (s *Switch) Deliver(seg *packet.Segment) {
	a := seg.Dst.Addr
	if s.last != nil && a == s.lastAddr {
		s.last.Deliver(seg)
		return
	}
	if r, ok := s.routes[a]; ok {
		s.lastAddr, s.last = a, r
		r.Deliver(seg)
		return
	}
	s.Unrouted++
}
