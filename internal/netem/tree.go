package netem

import (
	"time"

	"repro/internal/sim"
)

// Tier describes one level of the fleet tree NewTree builds: the
// rates, one-way propagation delay, queue depth and downstream loss
// its links get.
// Upstream (ACK-direction) links of a tier are loss-free — exactly the
// UpLoss<0 convention profiles use for asymmetric paths — because
// upstream loss was never a reported artefact and fleet runs care
// about downstream aggregation behaviour.
type Tier struct {
	Down, Up Bandwidth
	Delay    time.Duration // one-way propagation per direction
	Queue    int           // bytes of buffering per link per direction
	Loss     float64       // downstream random loss per link
	// AQM selects the queue policy on this tier's downstream links
	// (the data direction, where queues build). Zero = drop-tail.
	AQM AqmConfig
}

// TreeConfig sizes a Tree. The zero value yields a plausible ISP-ish
// shape: 6/1 Mbps access links, 32 clients per 200 Mbps aggregation
// link, and a 2 Gbps core uplink — enough headroom that burstiness,
// not starvation, is what aggregation links exhibit.
type TreeConfig struct {
	Access Tier
	Agg    Tier
	Core   Tier
	// ClientsPerAgg is how many access links share one aggregation
	// link. Default 32.
	ClientsPerAgg int
}

// WithDefaults fills zero fields with the default shape.
func (c TreeConfig) WithDefaults() TreeConfig {
	if c.ClientsPerAgg <= 0 {
		c.ClientsPerAgg = 32
	}
	c.Access = c.Access.withDefaults(Tier{Down: 6 * Mbps, Up: 1 * Mbps, Delay: 2 * time.Millisecond, Queue: 64 << 10})
	c.Agg = c.Agg.withDefaults(Tier{Down: 200 * Mbps, Up: 200 * Mbps, Delay: 1 * time.Millisecond, Queue: 512 << 10})
	c.Core = c.Core.withDefaults(Tier{Down: 2 * Gbps, Up: 2 * Gbps, Delay: 5 * time.Millisecond, Queue: 4 << 20})
	return c
}

// withDefaults fills t's zero rates, delay and queue from d.
func (t Tier) withDefaults(d Tier) Tier {
	if t.Down == 0 {
		t.Down = d.Down
	}
	if t.Up == 0 {
		t.Up = d.Up
	}
	if t.Delay == 0 {
		t.Delay = d.Delay
	}
	if t.Queue == 0 {
		t.Queue = d.Queue
	}
	return t
}

// BaseRTT returns the no-queueing round-trip time of the full tree
// path (twice the summed one-way delays).
func (c TreeConfig) BaseRTT() time.Duration {
	return 2 * (c.Access.Delay + c.Agg.Delay + c.Core.Delay)
}

// Tier indices of a NewTree fleet tree, server side first.
const (
	Core = iota
	Agg
	Access
)

// linkSpec describes one direction of a tier's links.
type linkSpec struct {
	rate  Bandwidth
	delay time.Duration
	queue int
	loss  float64
	aqm   AqmConfig
}

// build creates a link to the spec delivering to dst.
func (s linkSpec) build(sch *sim.Scheduler, dst Receiver) *Link {
	l := NewLink(sch, s.rate, s.delay, s.queue, RandomLoss{Rate: s.loss}, dst)
	l.SetAQM(s.aqm.New(s.queue))
	return l
}

// reset returns l to the state build gives it, keeping its wiring.
func (s linkSpec) reset(l *Link) {
	l.Reset(s.rate, s.delay, s.queue, RandomLoss{Rate: s.loss}, s.aqm.New(s.queue))
}

// tier is one level of a Tree: a down/up link pair per group of share
// clients.
type tier struct {
	down, up   linkSpec
	share      int       // clients per link; 0 = every client
	downs, ups []*Link   // every pair ever built, recycled by Reset
	sws        []*Switch // per pair; nil where the link has one child
}

// index returns the link of the tier that carries client j.
func (tr *tier) index(j int) int {
	if tr.share == 0 {
		return 0
	}
	return j / tr.share
}

// Tree is the one topology: an ordered list of tiers, server side
// first, where every tier is a down/up link pair shared by a fixed
// number of clients. A downstream packet takes one link per tier to
// its client, an upstream packet the reverse. A link whose subtree
// holds a single child (one client, or one lower-tier link) delivers
// straight to it; otherwise a Switch routes by destination address.
// Every hop is an ordinary Link, so capture taps (Link.AddTap) and
// Dynamics timelines attach at any tier.
//
// NewTree builds the fleet shape: per-client access links, groups of
// ClientsPerAgg sharing an aggregation link, and one core uplink — the
// shape at which the paper argues streaming strategies matter in
// aggregate, because thousands of ON-OFF sources synchronize into
// bursts at the aggregation and core tiers. NewProfileTree builds a
// vantage network as a single tier: one client behind it is the
// paper's one-player-per-network method, many clients share one
// bottleneck queue.
type Tree struct {
	tiers    []tier
	sch      *sim.Scheduler
	server   Receiver
	nClients int // attached clients; links beyond them are recycled spares
}

// NewTree builds the fleet tree. Upstream links are loss-free and
// drop-tail. Only the core pair exists up front; aggregation and
// access links are created on demand by Attach. The server receives
// everything sent up the core; it must transmit on Down(Core, 0).
func NewTree(sch *sim.Scheduler, cfg TreeConfig, server Receiver) *Tree {
	cfg = cfg.WithDefaults()
	level := func(t Tier, share int) tier {
		return tier{
			down:  linkSpec{t.Down, t.Delay, t.Queue, t.Loss, t.AQM},
			up:    linkSpec{rate: t.Up, delay: t.Delay, queue: t.Queue},
			share: share,
		}
	}
	return newTree(sch, server, level(cfg.Core, 0), level(cfg.Agg, cfg.ClientsPerAgg), level(cfg.Access, 1))
}

// NewProfileTree builds the profile's network as one link pair carried
// by up to clients clients: RTT/2 propagation per direction, Loss
// downstream and UpLossRate upstream (ACK loss was not a reported
// artefact), and the profile's AQM and queue on both directions. With
// one client the down link delivers straight to it; with more they
// share the pair's queues through a Switch. The server receives
// everything sent up; it must transmit on Down(0, 0).
func NewProfileTree(sch *sim.Scheduler, p Profile, clients int, server Receiver) *Tree {
	half := p.RTT / 2
	return newTree(sch, server, tier{
		down:  linkSpec{p.Down, half, p.Queue, p.Loss, p.AQM},
		up:    linkSpec{p.Up, half, p.Queue, p.UpLossRate(), p.AQM},
		share: clients,
	})
}

func newTree(sch *sim.Scheduler, server Receiver, tiers ...tier) *Tree {
	t := &Tree{tiers: tiers, sch: sch, server: server}
	t.grow(0, 0)
	return t
}

// grow builds tier k's next link pair, the one carrying client j,
// with its uplink feeding its parent's. The down link gets a Switch
// unless it will have a single child: one client, or one link of a
// tier with the same share.
func (t *Tree) grow(k, j int) {
	tr := &t.tiers[k]
	up := t.server
	if k > 0 {
		parent := &t.tiers[k-1]
		up = parent.ups[parent.index(j)]
	}
	child := 1
	if k+1 < len(t.tiers) {
		child = t.tiers[k+1].share
	}
	var sw *Switch
	var dst Receiver
	if tr.share != child {
		sw = NewSwitch()
		dst = sw
	}
	tr.downs = append(tr.downs, tr.down.build(t.sch, dst))
	tr.ups = append(tr.ups, tr.up.build(t.sch, up))
	tr.sws = append(tr.sws, sw)
}

// Attach wires a new client under the tree: it creates (or, after a
// Reset, recycles) the links it needs, tier by tier from the server
// side (attach order fills each shared link in turn), routes the
// address down every tier, and returns the uplink the client must
// transmit on (client.SetLink). It panics past NewProfileTree's
// client count.
func (t *Tree) Attach(addr [4]byte, client Receiver) *Link {
	j := t.nClients
	if s := t.tiers[0].share; s > 0 && j >= s {
		panic("netem: tree is full")
	}
	t.nClients++
	for k := range t.tiers {
		if t.tiers[k].index(j) == len(t.tiers[k].downs) {
			t.grow(k, j)
		}
	}
	child := client
	for k := len(t.tiers) - 1; k >= 0; k-- {
		tr := &t.tiers[k]
		i := tr.index(j)
		if sw := tr.sws[i]; sw != nil {
			sw.Route(addr, child)
		} else {
			tr.downs[i].dst = child
		}
		child = tr.downs[i]
	}
	leaf := &t.tiers[len(t.tiers)-1]
	return leaf.ups[leaf.index(j)]
}

// Down returns link i of tier k in the downstream direction. Tier 0
// is the server side; its single link is the one the server sends on.
func (t *Tree) Down(k, i int) *Link { return t.tiers[k].downs[i] }

// Up returns link i of tier k in the upstream direction.
func (t *Tree) Up(k, i int) *Link { return t.tiers[k].ups[i] }

// Width returns how many links of tier k carry attached clients; the
// server-side tier always has its one.
func (t *Tree) Width(k int) int {
	if k == 0 {
		return 1
	}
	s := t.tiers[k].share
	return (t.nClients + s - 1) / s
}

// Reset returns the tree to its just-built state while keeping every
// link, switch and ring allocation: every link ever created is Reset
// (fresh AQM instances, Dynamics mutations undone, taps and counters
// cleared), routes dropped, and the attach cursor rewound, so the next
// population attaches into recycled link slots. The shared scheduler
// must be Reset in the same pass.
func (t *Tree) Reset() {
	for k := range t.tiers {
		tr := &t.tiers[k]
		for i := range tr.downs {
			tr.down.reset(tr.downs[i])
			tr.up.reset(tr.ups[i])
			if sw := tr.sws[i]; sw != nil {
				sw.Reset()
			}
		}
	}
	t.nClients = 0
}

// Unrouted sums the unrouted-packet counters across every switch in
// the tree (0 in a healthy run).
func (t *Tree) Unrouted() int {
	n := 0
	for k := range t.tiers {
		for _, sw := range t.tiers[k].sws[:t.Width(k)] {
			if sw != nil {
				n += sw.Unrouted
			}
		}
	}
	return n
}

// DroppedAtTier sums tier k's downstream drop counters, the aggregate
// loss accounting fleet results report, and the AQM-attributed subset
// that separates policy drops from loss-model and hard-cap drops.
func (t *Tree) DroppedAtTier(k int) (dropped, aqm int) {
	for _, l := range t.tiers[k].downs[:t.Width(k)] {
		dropped += l.Dropped
		aqm += l.AqmDrops
	}
	return dropped, aqm
}
