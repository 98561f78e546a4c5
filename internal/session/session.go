// Package session orchestrates one streaming measurement exactly like
// the paper's methodology (Section 4.2): set up a vantage network,
// start the capture, start the player, stream for 180 seconds, stop,
// and analyze. The capture is a sink fan-out: by default only the
// online analyzer (analysis.Streaming) observes the packets — O(flows)
// state, with segment structs recycled through a pool — while Buffered
// retains the full trace.Trace for pcap export and offline tooling.
package session

import (
	"errors"
	"io"
	"time"

	"repro/internal/analysis"
	"repro/internal/media"
	"repro/internal/netem"
	"repro/internal/packet"
	"repro/internal/player"
	"repro/internal/service"
	"repro/internal/sim"
	"repro/internal/tcp"
	"repro/internal/trace"
)

// ServiceKind selects which service backend serves the video.
type ServiceKind int

// The two services.
const (
	YouTube ServiceKind = iota
	Netflix
)

func (k ServiceKind) String() string {
	if k == YouTube {
		return "YouTube"
	}
	return "Netflix"
}

// DefaultDuration is the paper's per-video capture time.
const DefaultDuration = 180 * time.Second

// Config describes one streaming session.
type Config struct {
	Video   media.Video
	Service ServiceKind
	Player  player.Player
	Network netem.Profile
	// Duration bounds the capture; 0 means DefaultDuration (180 s).
	// It is an absolute horizon: a session with StartAt > 0 streams
	// for Duration - StartAt before the capture stops.
	Duration time.Duration
	// StartAt delays the player start — the arrival offset used by
	// scenario batches where sessions join over time. The capture
	// still begins at t=0, like tcpdump started before the player.
	StartAt time.Duration
	// Seed makes the run reproducible.
	Seed int64
	// ServerTCP overrides the server-side TCP configuration (the
	// IdleReset ablation flips a field here).
	ServerTCP tcp.Config
	// DownDynamics and UpDynamics schedule mid-session network changes
	// (rate steps/ramps, delay and loss changes, outages) on the
	// respective link. Empty timelines leave the link frozen, which is
	// the historical behaviour.
	DownDynamics netem.Dynamics
	UpDynamics   netem.Dynamics
	// Buffered additionally retains the full capture in Result.Trace
	// (tcpdump-then-analyze mode) for pcap export and offline flow
	// inspection. It disables segment pooling, since the trace pins
	// every segment.
	Buffered bool
	// Series additionally collects the exact per-packet download and
	// receive-window series (Result.Download/Windows) that the figure
	// experiments plot — points only, no segments.
	Series bool
	// SeriesBin, when positive, makes the analyzer aggregate the
	// capture into fixed-width bins (Result.Analysis.Bins): the
	// constant-memory form of the series.
	SeriesBin time.Duration
}

// Result carries everything a measurement produced.
type Result struct {
	Config   Config
	Analysis *analysis.Result
	// Trace is the buffered capture; nil unless Config.Buffered.
	Trace *trace.Trace
	// Download and Windows are the exact figure series; nil unless
	// Config.Series.
	Download []trace.DownloadPoint
	Windows  []trace.WindowPoint
	// Packets is the captured packet count (both directions).
	Packets int
	// Downloaded is the player-side consumed byte count.
	Downloaded int64
	// QoE is the player's playback-buffer outcome (startup delay,
	// rebuffering, rung occupancy), evaluated at the capture horizon.
	QoE     player.Metrics
	Elapsed time.Duration
}

// ClientAddr is the measurement vantage address used in captures.
var ClientAddr = [4]byte{10, 0, 0, 1}

// ServerAddr is the service address.
var ServerAddr = [4]byte{203, 0, 113, 10}

// AnalysisConfig returns the analyzer configuration a session derives
// from its video metadata (also used by the equivalence tests to
// re-analyze buffered captures).
func (cfg Config) AnalysisConfig() analysis.Config {
	return analysis.Config{
		KnownDuration: cfg.Video.Duration,
		KnownRate:     cfg.Video.EncodingRate,
		SeriesBin:     cfg.SeriesBin,
	}
}

// Run executes the session and analyzes the capture.
func Run(cfg Config) *Result {
	if cfg.Duration <= 0 {
		cfg.Duration = DefaultDuration
	}
	sch := sim.NewScheduler(cfg.Seed)
	client := tcp.NewHost(sch, ClientAddr[0], ClientAddr[1], ClientAddr[2], ClientAddr[3])
	server := tcp.NewHost(sch, ServerAddr[0], ServerAddr[1], ServerAddr[2], ServerAddr[3])
	tree := netem.NewProfileTree(sch, cfg.Network, 1, server)
	down, up := tree.Down(0, 0), tree.Attach(ClientAddr, client)
	server.SetLink(down)
	client.SetLink(up)
	cfg.DownDynamics.Apply(sch, down)
	cfg.UpDynamics.Apply(sch, up)

	// tcpdump at the client vantage point: a fan-out of streaming
	// sinks, plus the buffered trace when asked for.
	stream := analysis.NewStreaming(cfg.AnalysisConfig())
	sinks := []trace.Sink{stream}
	var series *trace.Series
	if cfg.Series {
		series = &trace.Series{}
		sinks = append(sinks, series)
	}
	var tr *trace.Trace
	if cfg.Buffered {
		tr = &trace.Trace{}
		sinks = append(sinks, tr)
	} else {
		// Streaming-only capture: nothing retains segments past the
		// tap, so both stacks can recycle them through one pool.
		pool := &packet.Pool{}
		client.SetSegmentPool(pool)
		server.SetSegmentPool(pool)
	}
	sink := trace.Fanout(sinks...)
	down.AddTap(trace.SinkTap(sink, trace.Down))
	up.AddTap(trace.SinkTap(sink, trace.Up))

	switch cfg.Service {
	case YouTube:
		service.NewYouTube(server, cfg.ServerTCP, []media.Video{cfg.Video})
	case Netflix:
		service.NewNetflix(server, cfg.ServerTCP, []media.Video{cfg.Video})
	}

	env := &player.Env{Sch: sch, Host: client, Server: packet.Endpoint{Addr: ServerAddr, Port: 80}}
	if cfg.StartAt > 0 {
		sch.At(cfg.StartAt, func() { cfg.Player.Start(env, cfg.Video) })
	} else {
		cfg.Player.Start(env, cfg.Video)
	}
	sch.RunUntil(cfg.Duration)
	_ = sink.Close()

	res := &Result{
		Config:     cfg,
		Analysis:   stream.Result(),
		Trace:      tr,
		Downloaded: cfg.Player.Downloaded(),
		QoE:        cfg.Player.QoE(sch.Now()),
		Elapsed:    sch.Now(),
	}
	res.Packets = res.Analysis.Packets
	if series != nil {
		res.Download = series.Download
		res.Windows = series.Windows
	}
	return res
}

// ErrNotBuffered is returned when pcap export is requested from a
// streaming-only session.
var ErrNotBuffered = errors.New("session: capture not buffered (set Config.Buffered for pcap export)")

// WritePcap saves the capture with a payload-preserving snaplen so
// container headers survive for offline analysis. The session must
// have run with Config.Buffered.
func (r *Result) WritePcap(w io.Writer) error {
	if r.Trace == nil {
		return ErrNotBuffered
	}
	return r.Trace.WritePcap(w, 0)
}
