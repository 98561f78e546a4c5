// Package scenario is the declarative layer over the emulation stack:
// a Spec composes a vantage profile, a client application, a video, an
// arrival process and per-direction dynamics timelines into runnable
// batches. The paper measured one frozen network per capture; specs
// reach the time-varying workloads its access networks actually had —
// mid-session rate drops, bursty-loss episodes, outages, and flash
// crowds of sessions competing on one bottleneck.
//
// A spec runs in one of two shapes:
//
//   - Isolated: every session gets its own path (the paper's one
//     player per vantage methodology), expanded into seeded
//     session.Configs and fanned out on the runner pool.
//   - Shared: all sessions share one profile link pair (a one-tier
//     netem.Tree) in a single deterministic simulation, with
//     per-client captures taken by address-filtering taps on the
//     shared links.
//
// Both shapes are bit-reproducible for any worker count: isolated
// batches carry per-session seeds and are consumed in submission
// order; a shared run is one single-threaded simulation.
package scenario

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/analysis"
	"repro/internal/media"
	"repro/internal/netem"
	"repro/internal/packet"
	"repro/internal/player"
	"repro/internal/runner"
	"repro/internal/service"
	"repro/internal/session"
	"repro/internal/sim"
	"repro/internal/tcp"
	"repro/internal/trace"
)

// Spec declares one scenario. The zero value of every optional field
// picks a sensible default (see withDefaults).
type Spec struct {
	Name    string
	Profile netem.Profile // base network; zero Name → netem.Research
	Player  PlayerKind
	// Video is the content template. Sessions stream copies with
	// consecutive IDs so a shared service can route every request. A
	// zero EncodingRate selects a 1.75 Mbps 360p default in the
	// player's native container.
	Video    media.Video
	Sessions int     // session count; 0 → 1
	Arrival  Arrival // start-time process for the sessions
	// Duration is the absolute capture horizon; 0 → 180 s.
	Duration time.Duration
	Seed     int64
	// Down and Up are dynamics timelines for the respective direction
	// (per-path in isolated runs, on the shared bottleneck links in
	// shared runs).
	Down, Up netem.Dynamics
	// ServerTCP overrides the server's TCP configuration.
	ServerTCP tcp.Config
	// Buffered retains each session's full capture (tcpdump mode)
	// instead of the default streaming sinks; see session.Config.
	Buffered bool
	// SeriesBin, when positive, asks the analyzer for fixed-width
	// binned series (constant-memory download/window curves).
	SeriesBin time.Duration
}

// Service returns the service the spec's player talks to. A player
// implies its service — Silverlight cannot stream from YouTube — so
// specs never carry a contradictory pair.
func (s Spec) Service() session.ServiceKind { return s.Player.Service() }

func (s Spec) withDefaults() Spec {
	if s.Profile.Name == "" {
		s.Profile = netem.Research
	}
	if s.Sessions <= 0 {
		s.Sessions = 1
	}
	if s.Duration <= 0 {
		s.Duration = session.DefaultDuration
	}
	if s.Seed == 0 {
		s.Seed = 1
	}
	if s.Video.EncodingRate == 0 {
		s.Video = media.Video{
			EncodingRate: 1.75e6,
			Duration:     420 * time.Second,
			Container:    s.Player.NativeContainer(),
			Resolution:   "360p",
		}
	}
	if s.Video.ID == 0 {
		s.Video.ID = 9000
	}
	if s.Video.Duration <= 0 {
		s.Video.Duration = 420 * time.Second
	}
	// An adaptive player needs a ladder to switch across; the default
	// is the paper-era Netflix ladder.
	if s.Player.Adaptive() && len(s.Video.Renditions) == 0 {
		s.Video = s.Video.WithLadder(media.DefaultLadder()...)
	}
	if s.Name == "" {
		s.Name = fmt.Sprintf("%s/%s x%d", s.Profile.Name, s.Player, s.Sessions)
	}
	return s
}

// Validate rejects specs that cannot run.
func (s Spec) Validate() error {
	if s.Sessions < 0 {
		return fmt.Errorf("scenario %q: negative session count", s.Name)
	}
	if err := s.Down.Validate(); err != nil {
		return fmt.Errorf("scenario %q down: %w", s.Name, err)
	}
	if err := s.Up.Validate(); err != nil {
		return fmt.Errorf("scenario %q up: %w", s.Name, err)
	}
	return nil
}

// video returns the i-th session's content: the template with a
// consecutive ID so every session is individually routable/servable.
func (s Spec) video(i int) media.Video {
	v := s.Video
	v.ID += i
	return v
}

// Configs expands the spec into independent-path session configs:
// one network per session (the paper's methodology), arrival offsets
// as StartAt, a derived seed per session, and the spec's dynamics on
// every path. The expansion itself is deterministic in Spec.Seed.
func (s Spec) Configs() []session.Config {
	s = s.withDefaults()
	rng := rand.New(rand.NewSource(s.Seed))
	starts := s.Arrival.Times(s.Sessions, rng)
	cfgs := make([]session.Config, s.Sessions)
	for i := range cfgs {
		cfgs[i] = session.Config{
			Video:        s.video(i),
			Service:      s.Service(),
			Player:       s.Player.New(),
			Network:      s.Profile,
			Duration:     s.Duration,
			StartAt:      starts[i],
			Seed:         rng.Int63(),
			ServerTCP:    s.ServerTCP,
			DownDynamics: s.Down,
			UpDynamics:   s.Up,
			Buffered:     s.Buffered,
			SeriesBin:    s.SeriesBin,
		}
	}
	return cfgs
}

// RunIsolated executes the expanded configs on a worker pool,
// returning results in submission order (bit-identical for any worker
// count).
func RunIsolated(o runner.Options, s Spec) []*session.Result {
	return runner.Sessions(o, s.Configs())
}

// Outcome is one session's result inside a shared-bottleneck run.
type Outcome struct {
	Index      int
	Start      time.Duration
	Downloaded int64
	// Packets counts this client's captured packets (both directions).
	Packets int
	// Trace is the buffered capture; nil unless Spec.Buffered.
	Trace    *trace.Trace
	Analysis *analysis.Result
	// QoE is the client's playback-buffer outcome at the horizon.
	QoE player.Metrics
}

// SharedResult is everything a shared-bottleneck run produced.
type SharedResult struct {
	Spec     Spec
	Outcomes []Outcome
	// Bottleneck accounting (shared downstream link).
	Offered     int
	Dropped     int
	InducedLoss float64
	OutageDrops int
	// AqmDrops is the subset of Dropped attributed to the profile's
	// queue policy (RED/CoDel), zero under drop-tail.
	AqmDrops int
	Unrouted int
	// AggregateMbps is the mean downstream rate over the horizon.
	AggregateMbps float64
}

// dispatchTap splits a shared link's packets into per-client captures
// by address in O(1) per packet (one map lookup, not a scan over N
// per-client filters; none while packets keep the previous packet's
// address), so each session's trace looks exactly like tcpdump on
// that client.
type dispatchTap struct {
	down   bool // key on Dst (downstream) instead of Src (upstream)
	byAddr map[[4]byte]netem.Tap
	// Last-hit cache in front of byAddr: last is nil when empty, and
	// route refreshes it.
	lastAddr [4]byte
	last     netem.Tap
}

// route registers the capture for a client address.
func (t *dispatchTap) route(addr [4]byte, tap netem.Tap) {
	t.byAddr[addr] = tap
	t.lastAddr, t.last = addr, tap
}

// Capture implements netem.Tap.
func (t *dispatchTap) Capture(at time.Duration, seg *packet.Segment) {
	a := seg.Src.Addr
	if t.down {
		a = seg.Dst.Addr
	}
	if t.last != nil && a == t.lastAddr {
		t.last.Capture(at, seg)
		return
	}
	if inner, ok := t.byAddr[a]; ok {
		t.lastAddr, t.last = a, inner
		inner.Capture(at, seg)
	}
}

// clientAddr numbers clients from 10.0.0.1 upward across the whole
// 10.0.0.0/8 plan: three octets of i+1, injective below 2^24-1 and
// identical to the historical 10.0/16 numbering for the first 65535
// clients, so group-aligned fleet runs keep their exact addresses.
func clientAddr(i int) [4]byte {
	return [4]byte{10, byte((i + 1) >> 16), byte((i + 1) >> 8), byte(i + 1)}
}

// clientIndex inverts clientAddr: the global client index behind an
// address in the 10.0.0.0/8 plan.
func clientIndex(addr [4]byte) int {
	return int(addr[1])<<16 | int(addr[2])<<8 | int(addr[3]) - 1
}

// RunShared executes every session of the spec on one shared profile
// bottleneck (netem.NewProfileTree) in a single deterministic
// simulation: sessions join at their arrival offsets and compete for
// the same drop-tail queue while the spec's dynamics play out on the
// shared links. Each client's capture is analyzed individually through its
// own streaming sink (or a buffered trace when Spec.Buffered asks for
// tcpdump mode).
func RunShared(s Spec) *SharedResult {
	s = s.withDefaults()
	if err := s.Validate(); err != nil {
		panic("scenario: " + err.Error())
	}
	sch := sim.NewScheduler(s.Seed)
	server := tcp.NewHost(sch, session.ServerAddr[0], session.ServerAddr[1], session.ServerAddr[2], session.ServerAddr[3])
	tree := netem.NewProfileTree(sch, s.Profile, s.Sessions, server)
	down, up := tree.Down(0, 0), tree.Up(0, 0)
	server.SetLink(down)
	s.Down.Apply(sch, down)
	s.Up.Apply(sch, up)

	// One shared pool for every stack on the bottleneck: with only
	// streaming sinks attached, no segment survives its delivery.
	var pool *packet.Pool
	if !s.Buffered {
		pool = &packet.Pool{}
		server.SetSegmentPool(pool)
	}

	vids := make([]media.Video, s.Sessions)
	for i := range vids {
		vids[i] = s.video(i)
	}
	switch s.Service() {
	case session.YouTube:
		service.NewYouTube(server, s.ServerTCP, vids)
	case session.Netflix:
		service.NewNetflix(server, s.ServerTCP, vids)
	}

	starts := s.Arrival.Times(s.Sessions, sch.Rand())
	res := &SharedResult{Spec: s, Outcomes: make([]Outcome, s.Sessions)}
	players := make([]player.Player, s.Sessions)
	streams := make([]*analysis.Streaming, s.Sessions)
	downTap := &dispatchTap{down: true, byAddr: make(map[[4]byte]netem.Tap, s.Sessions)}
	upTap := &dispatchTap{byAddr: make(map[[4]byte]netem.Tap, s.Sessions)}
	down.AddTap(downTap)
	up.AddTap(upTap)
	for i := 0; i < s.Sessions; i++ {
		i := i
		addr := clientAddr(i)
		client := tcp.NewHost(sch, addr[0], addr[1], addr[2], addr[3])
		client.SetLink(tree.Attach(addr, client))
		if pool != nil {
			client.SetSegmentPool(pool)
		}
		streams[i] = analysis.NewStreaming(analysis.Config{
			KnownDuration: vids[i].Duration,
			KnownRate:     vids[i].EncodingRate,
			SeriesBin:     s.SeriesBin,
		})
		sinks := []trace.Sink{streams[i]}
		var tr *trace.Trace
		if s.Buffered {
			tr = &trace.Trace{}
			sinks = append(sinks, tr)
		}
		sink := trace.Fanout(sinks...)
		downTap.route(addr, trace.SinkTap(sink, trace.Down))
		upTap.route(addr, trace.SinkTap(sink, trace.Up))
		res.Outcomes[i] = Outcome{Index: i, Start: starts[i], Trace: tr}
		env := &player.Env{Sch: sch, Host: client, Server: packet.Endpoint{Addr: session.ServerAddr, Port: 80}}
		p := s.Player.New()
		players[i] = p
		start := func() { p.Start(env, vids[i]) }
		if starts[i] > 0 {
			sch.At(starts[i], start)
		} else {
			start()
		}
	}
	sch.RunUntil(s.Duration)

	var aggregate int64
	for i := range res.Outcomes {
		o := &res.Outcomes[i]
		o.Downloaded = players[i].Downloaded()
		o.QoE = players[i].QoE(sch.Now())
		o.Analysis = streams[i].Result()
		o.Packets = o.Analysis.Packets
		aggregate += o.Analysis.TotalBytes
	}
	res.Offered = down.Sent + down.Dropped
	res.Dropped = down.Dropped
	res.OutageDrops = down.OutageDrops
	res.AqmDrops = down.AqmDrops
	if res.Offered > 0 {
		res.InducedLoss = float64(res.Dropped) / float64(res.Offered)
	}
	res.Unrouted = tree.Unrouted()
	if s.Duration > 0 {
		res.AggregateMbps = float64(aggregate) * 8 / s.Duration.Seconds() / 1e6
	}
	return res
}

// StrategyMix counts classified strategies across the outcomes,
// rendered in a stable order.
func (r *SharedResult) StrategyMix() string {
	counts := map[analysis.Strategy]int{}
	for _, o := range r.Outcomes {
		counts[o.Analysis.Strategy]++
	}
	out := ""
	for _, st := range []analysis.Strategy{analysis.NoOnOff, analysis.ShortOnOff, analysis.LongOnOff, analysis.MultipleOnOff, analysis.StrategyUnknown} {
		if n := counts[st]; n > 0 {
			if out != "" {
				out += ", "
			}
			out += fmt.Sprintf("%dx %s", n, st)
		}
	}
	if out == "" {
		return "none"
	}
	return out
}
