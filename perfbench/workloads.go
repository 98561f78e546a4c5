package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"time"

	"repro/internal/media"
	"repro/internal/netem"
	"repro/internal/runner"
	"repro/internal/scenario"
	"repro/internal/session"
	"repro/internal/tcp"
)

// counts are the exact, seed-determined quantities one operation's
// result carries. Fields a workload's public result does not expose
// stay zero (see README.md, "Exact counts").
type counts struct {
	Pkts                       int64 // packets the workload's link accounting counts
	DropCore, DropAgg, DropAcc int64 // fleet tier drops (downstream)
	Drops, AqmDrops            int64 // all downstream drops; the AQM subset
	Offered                    int64 // downstream packets offered
	DataSegs, Retrans          int64 // server data segments seen at the tap; retransmitted ones
	Flows                      int64 // TCP connections the analyzer found
	Rebuffers, Starved         int64 // playback stalls; clients that got no payload
	Startups                   []float64
	FleetBytes                 int64 // encoded FleetResult size
	ClientSec                  float64
}

func (c *counts) add(o counts) {
	c.Pkts += o.Pkts
	c.DropCore += o.DropCore
	c.DropAgg += o.DropAgg
	c.DropAcc += o.DropAcc
	c.Drops += o.Drops
	c.AqmDrops += o.AqmDrops
	c.Offered += o.Offered
	c.DataSegs += o.DataSegs
	c.Retrans += o.Retrans
	c.Flows += o.Flows
	c.Rebuffers += o.Rebuffers
	c.Starved += o.Starved
	c.Startups = append(c.Startups, o.Startups...)
	c.FleetBytes += o.FleetBytes
	c.ClientSec += o.ClientSec
}

// checked is an operation's verified outcome.
type checked struct {
	digest [sha256.Size]byte
	counts counts
}

// workload is one closed-loop input stream over a public entry point.
type workload struct {
	name string
	// cycle is the number of operations one pass over the input mix
	// takes; runs time whole cycles, so every run sees the same mix.
	cycle int
	// maxCycles caps the inputs generated before timing.
	maxCycles int
	// input builds operation i's input from the run seed.
	input func(seed int64, i int) any
	// op is the timed call into the entry point; sp records spans
	// around each public call (nil when untraced).
	op func(in any, sp *spans) any
	// check verifies op's output and extracts its digest and counts.
	check func(out any) (checked, error)
}

var workloads = []workload{sessionsWorkload(), fleetWorkload(), sharedLossWorkload()}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// mix derives a non-zero per-operation seed from the run seed
// (splitmix64), so neighbouring run seeds give unrelated inputs.
func mix(seed int64, i int) int64 {
	z := uint64(seed)*0x9e3779b97f4a7c15 + uint64(i+1)*0xbf58476d1ce4e5b9
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return int64(z>>1) | 1
}

func jsonDigest(v any) ([sha256.Size]byte, error) {
	b, err := json.Marshal(v)
	if err != nil {
		return [sha256.Size]byte{}, err
	}
	return sha256.Sum256(b), nil
}

// sessionsWorkload: one isolated 180 s session per operation, cycling
// through the paper's nine clients on the four Section 4.2 profiles.
func sessionsWorkload() workload {
	players := scenario.PlayerKinds()[:scenario.NetflixAndroid+1]
	profiles := netem.Profiles()
	cycle := len(players) * len(profiles)
	return workload{
		name:      "sessions",
		cycle:     cycle,
		maxCycles: 128,
		input: func(seed int64, i int) any {
			k := i % cycle
			spec := scenario.Spec{
				Profile: profiles[k/len(players)],
				Player:  players[k%len(players)],
				Seed:    mix(seed, i),
			}
			return spec.Configs()[0]
		},
		op: func(in any, sp *spans) any {
			defer sp.begin("session.Run").end()
			return session.Run(in.(session.Config))
		},
		check: func(out any) (checked, error) {
			r := out.(*session.Result)
			if r.Packets <= 0 || r.Downloaded <= 0 {
				return checked{}, fmt.Errorf("session: %d packets, %d bytes downloaded", r.Packets, r.Downloaded)
			}
			d, err := jsonDigest(struct {
				Packets    int
				Downloaded int64
				Analysis   any
				QoE        any
			}{r.Packets, r.Downloaded, r.Analysis, r.QoE})
			c := counts{
				Pkts:      int64(r.Packets),
				DataSegs:  int64(r.Analysis.DataSegs),
				Retrans:   int64(r.Analysis.Retrans),
				Flows:     int64(r.Analysis.ConnCount),
				Rebuffers: int64(r.QoE.Rebuffers),
				ClientSec: r.Config.Duration.Seconds(),
			}
			if r.QoE.Started {
				c.Startups = []float64{r.QoE.StartupDelay.Seconds()}
			}
			return checked{digest: d, counts: c}, err
		},
	}
}

// fleetOut is what one fleet operation hands to its check.
type fleetOut struct {
	spec scenario.Fleet
	res  *scenario.FleetResult
	data []byte
	back *scenario.FleetResult
	err  error
}

// fleetWorkload: BenchmarkFleet/clients=256 through RunFleet on one
// worker, then the result codec's encode/decode round trip.
func fleetWorkload() workload {
	return workload{
		name:      "fleet",
		cycle:     1,
		maxCycles: 64,
		input: func(seed int64, i int) any {
			return scenario.Fleet{
				Mix:      []scenario.MixEntry{{Player: scenario.Flash, Weight: 1}, {Player: scenario.FirefoxHtml5, Weight: 1}},
				Clients:  256,
				Duration: 30 * time.Second,
				Arrival:  scenario.Arrival{Kind: scenario.Staggered, Window: 10 * time.Second},
				Seed:     mix(seed, i),
			}
		},
		op: func(in any, sp *spans) any {
			f := in.(scenario.Fleet)
			o := &fleetOut{spec: f}
			s := sp.begin("scenario.validate")
			o.err = f.Validate()
			s.end()
			if o.err != nil {
				return o
			}
			s = sp.begin("scenario.RunFleet")
			o.res = scenario.RunFleet(runner.Options{Workers: 1}, f)
			s.end()
			s = sp.begin("fleetio.encode")
			o.data, o.err = o.res.MarshalBinary()
			s.end()
			if o.err != nil {
				return o
			}
			s = sp.begin("fleetio.decode")
			o.back, o.err = scenario.UnmarshalFleetResult(o.data, f)
			s.end()
			return o
		},
		check: func(out any) (checked, error) {
			o := out.(*fleetOut)
			if o.err != nil {
				return checked{}, o.err
			}
			r := o.res
			switch {
			case r.StarvedClients != 0:
				return checked{}, fmt.Errorf("fleet: %d starved clients", r.StarvedClients)
			case r.Unrouted != 0:
				return checked{}, fmt.Errorf("fleet: %d unrouted packets", r.Unrouted)
			case r.CoreDropped > r.CoreOffered:
				return checked{}, fmt.Errorf("fleet: %d core drops > %d offered", r.CoreDropped, r.CoreOffered)
			}
			again, err := o.back.MarshalBinary()
			if err != nil {
				return checked{}, err
			}
			if !bytes.Equal(again, o.data) {
				return checked{}, errors.New("fleet: decoded result re-encodes to different bytes")
			}
			drops := r.CoreDropped + r.AggDropped + r.AccessDropped
			c := counts{
				Pkts:       int64(r.CoreOffered),
				DropCore:   int64(r.CoreDropped),
				DropAgg:    int64(r.AggDropped),
				DropAcc:    int64(r.AccessDropped),
				Drops:      int64(drops),
				Offered:    int64(r.CoreOffered),
				Rebuffers:  int64(r.RebufCount.Sum()),
				Starved:    int64(r.StarvedClients),
				Startups:   []float64{r.StartupSec.Median()},
				FleetBytes: int64(len(o.data)),
				ClientSec:  float64(r.Clients) * o.spec.Duration.Seconds(),
			}
			return checked{digest: sha256.Sum256(o.data), counts: c}, nil
		},
	}
}

// sharedLossCC is the server congestion controller rotation.
var sharedLossCC = []string{tcp.CCReno, tcp.CCCubic, tcp.CCBbr}

// sharedLossWorkload: a 24-session flash crowd on one lossy CoDel
// dumbbell through RunShared, rotating the server's CC per operation.
func sharedLossWorkload() workload {
	prof := netem.Profile{
		Name:   "shared-loss",
		Down:   20 * netem.Mbps,
		Up:     20 * netem.Mbps,
		RTT:    40 * time.Millisecond,
		Loss:   0.01,
		UpLoss: -1,
		Queue:  256 << 10,
		AQM:    netem.AqmConfig{Kind: netem.AqmCoDel},
	}
	return workload{
		name:      "shared-loss",
		cycle:     len(sharedLossCC),
		maxCycles: 64,
		input: func(seed int64, i int) any {
			return scenario.Spec{
				Name:      "shared-loss",
				Profile:   prof,
				Player:    scenario.Flash,
				Video:     media.Video{EncodingRate: 1.2e6, Duration: 420 * time.Second, Container: media.Flash, Resolution: "360p"},
				Sessions:  24,
				Arrival:   scenario.Arrival{Kind: scenario.FlashCrowd, Window: 60 * time.Second},
				Duration:  180 * time.Second,
				Seed:      mix(seed, i),
				ServerTCP: tcp.Config{CC: sharedLossCC[i%len(sharedLossCC)]},
			}
		},
		op: func(in any, sp *spans) any {
			defer sp.begin("scenario.RunShared").end()
			return scenario.RunShared(in.(scenario.Spec))
		},
		check: func(out any) (checked, error) {
			r := out.(*scenario.SharedResult)
			if r.Unrouted != 0 {
				return checked{}, fmt.Errorf("shared: %d unrouted packets", r.Unrouted)
			}
			if r.AqmDrops+r.OutageDrops > r.Dropped || r.Dropped > r.Offered {
				return checked{}, fmt.Errorf("shared: aqm %d + outage %d drops, %d dropped, %d offered",
					r.AqmDrops, r.OutageDrops, r.Dropped, r.Offered)
			}
			type outcome struct {
				Start      time.Duration
				Downloaded int64
				Packets    int
				Analysis   any
				QoE        any
			}
			outs := make([]outcome, len(r.Outcomes))
			c := counts{
				Pkts:     int64(r.Offered),
				Drops:    int64(r.Dropped),
				AqmDrops: int64(r.AqmDrops),
				Offered:  int64(r.Offered),
			}
			for i, o := range r.Outcomes {
				outs[i] = outcome{o.Start, o.Downloaded, o.Packets, o.Analysis, o.QoE}
				c.DataSegs += int64(o.Analysis.DataSegs)
				c.Retrans += int64(o.Analysis.Retrans)
				c.Flows += int64(o.Analysis.ConnCount)
				c.Rebuffers += int64(o.QoE.Rebuffers)
				if o.Downloaded == 0 {
					c.Starved++
				}
				if o.QoE.Started {
					c.Startups = append(c.Startups, o.QoE.StartupDelay.Seconds())
				}
			}
			c.ClientSec = float64(len(r.Outcomes)) * r.Spec.Duration.Seconds()
			d, err := jsonDigest(struct {
				Outcomes                                []outcome
				Offered, Dropped, AqmDrops, OutageDrops int
				AggregateMbps                           float64
			}{outs, r.Offered, r.Dropped, r.AqmDrops, r.OutageDrops, r.AggregateMbps})
			return checked{digest: d, counts: c}, err
		},
	}
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (xs is sorted in place).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(pos)
	if lo+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	return xs[lo] + (pos-float64(lo))*(xs[lo+1]-xs[lo])
}
