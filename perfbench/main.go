// Command perfbench is the simulator's benchmark. It drives one
// workload through the simulator's public entry points in a closed
// loop on a single worker and one CPU, checks every operation's output,
// rescales its times to a reference host (calib.go), and prints
// one JSON object as the last line of standard output:
//
//	perfbench --workload sessions|fleet|shared-loss --seed N --seconds S --trace 0|1
//
// With --trace 0 it reports the end-to-end metrics of an untraced run.
// With --trace 1 it makes an untraced run and a traced run (CPU profile
// plus spans around each public call) of S/2 seconds each on the same
// inputs and reports the per-layer metrics. See README.md.
package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"sync/atomic"
	"time"
)

// A run sets up at least minSetups times, and more while the set-ups
// have taken less than setupBudget in all; setup_s is their median.
const (
	minSetups   = 3
	maxSetups   = 15
	setupBudget = 2 * time.Second
)

// traceDir receives the traced run's spans and CPU profile.
const traceDir = ".bench_build/perfbench"

// minP90Ops is the fewest timed operations op_s_p90 is reported on,
// so that at least ten samples lie beyond it.
const minP90Ops = 100

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: sessions, fleet or shared-loss")
	seed := fs.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := fs.Float64("seconds", 10, "seconds of timed operations")
	traced := fs.Int("trace", 0, "0: end-to-end metrics; 1: untraced and traced runs, per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloadByName(*name)
	if !ok || *seconds <= 0 || (*traced != 0 && *traced != 1) || fs.NArg() != 0 {
		fmt.Fprintln(stderr, "perfbench: need --workload sessions|fleet|shared-loss, --seconds > 0 and --trace 0|1")
		return 2
	}
	// One CPU, as well as one worker: the collector then shares the
	// simulator's CPU, so its cost shows in the operation times, and the
	// calibration kernel measures the CPU the operations ran on.
	runtime.GOMAXPROCS(1)
	b := &bench{w: w, seed: *seed, log: stderr}
	budget := time.Duration(*seconds * float64(time.Second))

	inputs, setupS, warm := b.setup()
	var m map[string]metric
	var first, cycle [sha256.Size]byte
	var ops int
	if *traced == 0 {
		r := b.loop(inputs, budget, nil)
		first, cycle, ops = r.first, r.cycle, len(r.opS)
		m = endToEnd(setupS, r)
	} else {
		r := b.loop(inputs, budget/2, nil)
		first, cycle, ops = r.first, r.cycle, len(r.opS)
		sp := newSpans()
		var prof bytes.Buffer
		if err := pprof.StartCPUProfile(&prof); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		t := b.loop(b.inputs(), budget/2, sp)
		pprof.StopCPUProfile()
		if t.first != r.first {
			b.fail(errors.New("traced run's first result differs from the untraced run's"))
		}
		var err error
		if m, err = perLayer(r, t, sp, prof.Bytes()); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		if err := writeTrace(w.name, *seed, sp, prof.Bytes()); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
	}
	// Re-running the first input must reproduce its result.
	if again, err := b.attempt(w.input(*seed, 0)); err == nil {
		if again.digest != first || warm.digest != first {
			b.fail(errors.New("re-running the first input changed its result digest"))
		}
	}
	if *traced == 1 {
		m["failed_ops_frac"] = metric{ratio(float64(b.failed), float64(b.attempted)), "fraction"}
	}

	fmt.Fprintf(stdout, "digest workload=%s seed=%d ops=%d op0=%x cycle=%x\n", w.name, *seed, ops, first, cycle)
	out, err := json.Marshal(report{Correct: b.failed == 0, Attempted: b.attempted, Failed: b.failed, Metrics: m})
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(out))
	if b.failed != 0 {
		return 1
	}
	return 0
}

// bench runs one workload's operations and counts their failures.
type bench struct {
	w                 workload
	seed              int64
	log               io.Writer
	attempted, failed int
}

func (b *bench) fail(err error) {
	b.failed++
	fmt.Fprintf(b.log, "perfbench: %s: %v\n", b.w.name, err)
}

// inputs generates every input a run may time.
func (b *bench) inputs() []any {
	in := make([]any, b.w.cycle*b.w.maxCycles)
	for i := range in {
		in[i] = b.w.input(b.seed, i)
	}
	return in
}

// call runs one operation, turning a panic into an error.
func (b *bench) call(in any, sp *spans) (out any, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("panic: %v", p)
		}
	}()
	return b.w.op(in, sp), nil
}

// verify checks one output, turning a panic into an error.
func (b *bench) verify(out any) (c checked, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("check panic: %v", p)
		}
	}()
	return b.w.check(out)
}

// attempt runs and checks one untimed operation.
func (b *bench) attempt(in any) (checked, error) {
	b.attempted++
	out, err := b.call(in, nil)
	var c checked
	if err == nil {
		c, err = b.verify(out)
	}
	if err != nil {
		b.fail(err)
	}
	return c, err
}

// setup generates the inputs and runs one warm-up operation, several
// times; it returns the last inputs, the median set-up time and the
// warm-up result.
func (b *bench) setup() ([]any, float64, checked) {
	var inputs []any
	var warm checked
	var times []float64
	var spent time.Duration
	for r := 0; r < minSetups || (r < maxSetups && spent < setupBudget); r++ {
		runtime.GC()
		t0 := time.Now()
		inputs = b.inputs()
		c, err := b.attempt(b.w.input(b.seed, 0))
		dt := time.Since(t0)
		spent += dt
		times = append(times, dt.Seconds()*hostScale(dt.Seconds()))
		if err == nil && r > 0 && c.digest != warm.digest {
			b.fail(errors.New("warm-up result digest changed between set-ups"))
		}
		warm = c
	}
	return inputs, quantile(times, 0.5), warm
}

// loopResult is one closed-loop run's measurements.
type loopResult struct {
	opS            []float64 // seconds per successful operation, rescaled to the reference host
	wallS          []float64 // the same, as the wall clock read them
	scale          []float64 // each operation's rescaling factor
	cycleRate      []float64 // simulated client-seconds per rescaled second, per whole cycle
	allocB, allocN uint64    // heap bytes and objects the operations allocated
	rt0, rt1       []metrics.Sample
	peakLive       []float64 // peak live heap bytes during each operation
	ref            counts    // the first cycle's counts (exact per seed)
	pkts           int64     // every operation's netem.pkts
	first, cycle   [sha256.Size]byte
}

// runtimeMetrics are read around a loop for its GC share.
var runtimeMetrics = []string{
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/cpu/classes/idle:cpu-seconds",
}

func readRuntime() []metrics.Sample {
	s := make([]metrics.Sample, len(runtimeMetrics))
	for i, n := range runtimeMetrics {
		s[i].Name = n
	}
	metrics.Read(s)
	return s
}

func sampleValue(s metrics.Sample) float64 {
	switch s.Value.Kind() {
	case metrics.KindUint64:
		return float64(s.Value.Uint64())
	case metrics.KindFloat64:
		return s.Value.Float64()
	}
	return 0
}

// delta is metric i's change over the loop.
func (r *loopResult) delta(i int) float64 {
	return sampleValue(r.rt1[i]) - sampleValue(r.rt0[i])
}

// loop times operations on inputs in order, one at a time, until the
// budget is spent at a cycle boundary or the inputs run out. With sp
// set it records spans and labels all but the operations themselves
// as harness work for the CPU profile.
func (b *bench) loop(inputs []any, budget time.Duration, sp *spans) loopResult {
	var r loopResult
	harness := pprof.WithLabels(context.Background(), pprof.Labels("phase", "harness"))
	if sp != nil {
		pprof.SetGoroutineLabels(harness)
		defer pprof.SetGoroutineLabels(context.Background())
	}
	peak := startPeakSampler()
	cycleHash := sha256.New()
	var cycleClientS, cycleOpS float64
	var ms runtime.MemStats
	runtime.GC()
	r.rt0 = readRuntime()
	t0 := time.Now()
	for i, in := range inputs {
		if i > 0 && i%b.w.cycle == 0 && time.Since(t0) >= budget {
			break
		}
		inputs[i] = nil // a consumed input is garbage, as in a fresh run
		b.attempted++
		runtime.ReadMemStats(&ms)
		bytes0, objs0 := ms.TotalAlloc, ms.Mallocs
		if sp != nil {
			sp.op = i
			pprof.SetGoroutineLabels(context.Background())
		}
		peak.take()
		start := time.Now()
		root := sp.begin(b.w.name + ".op")
		out, err := b.call(in, sp)
		root.end()
		dt := time.Since(start).Seconds()
		peakOp := peak.take()
		if sp != nil {
			pprof.SetGoroutineLabels(harness)
		}
		runtime.ReadMemStats(&ms)
		scale := hostScale(dt)
		var c checked
		if err == nil {
			c, err = b.verify(out)
		}
		if err != nil {
			b.fail(fmt.Errorf("op %d: %w", i, err))
			continue
		}
		r.opS = append(r.opS, dt*scale)
		r.wallS = append(r.wallS, dt)
		r.scale = append(r.scale, scale)
		r.peakLive = append(r.peakLive, float64(peakOp))
		r.allocB += ms.TotalAlloc - bytes0
		r.allocN += ms.Mallocs - objs0
		r.pkts += c.counts.Pkts
		cycleClientS += c.counts.ClientSec
		cycleOpS += dt * scale
		if (i+1)%b.w.cycle == 0 {
			r.cycleRate = append(r.cycleRate, ratio(cycleClientS, cycleOpS))
			cycleClientS, cycleOpS = 0, 0
		}
		if i < b.w.cycle {
			r.ref.add(c.counts)
			cycleHash.Write(c.digest[:])
		}
		if i == 0 {
			r.first = c.digest
		}
	}
	r.rt1 = readRuntime()
	peak.finish()
	copy(r.cycle[:], cycleHash.Sum(nil))
	return r
}

// peakSampler tracks the largest live heap the collector has marked,
// polling runtime/metrics every few milliseconds.
type peakSampler struct {
	stop, done chan struct{}
	peak       atomic.Uint64
}

const liveHeapMetric = "/gc/heap/live:bytes"

func liveHeap() uint64 {
	s := []metrics.Sample{{Name: liveHeapMetric}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

func startPeakSampler() *peakSampler {
	p := &peakSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(p.done)
		t := time.NewTicker(5 * time.Millisecond)
		defer t.Stop()
		for {
			v := liveHeap()
			for old := p.peak.Load(); v > old && !p.peak.CompareAndSwap(old, v); old = p.peak.Load() {
			}
			select {
			case <-p.stop:
				return
			case <-t.C:
			}
		}
	}()
	return p
}

// take returns the peak since the previous take and restarts tracking
// from the current live heap.
func (p *peakSampler) take() uint64 {
	v := liveHeap()
	return max(p.peak.Swap(v), v)
}

func (p *peakSampler) finish() {
	close(p.stop)
	<-p.done
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// endToEnd is what a user of the simulator sees: set-up time, time per
// operation, throughput in simulated client-seconds, and memory.
func endToEnd(setupS float64, r loopResult) map[string]metric {
	ops := float64(len(r.opS))
	return map[string]metric{
		"setup_s":         {setupS, "s"},
		"op_s_p50":        {quantile(r.opS, 0.5), "s"},
		"client_s_per_s":  {quantile(r.cycleRate, 0.5), "client-s/s"},
		"alloc_mb_per_op": {ratio(float64(r.allocB), ops) / 1e6, "MB"},
		"allocs_per_op":   {ratio(float64(r.allocN), ops), "count"},
		"peak_heap_mb":    {quantile(r.peakLive, 0.5) / 1e6, "MB"},
	}
}

// perLayer splits the traced run t's CPU time by layer, compares it
// with the untraced run u, and adds the exact counts of u's first cycle.
func perLayer(u, t loopResult, sp *spans, prof []byte) (map[string]metric, error) {
	split, samples, err := layerSplit(prof, "phase", "harness")
	if err != nil {
		return nil, err
	}
	m := map[string]metric{}
	for _, l := range layers {
		m[l+".ns_per_pkt"] = metric{ratio(split[l], float64(t.pkts)), "ns/pkt"}
	}
	uOps := float64(len(u.opS))
	p50u := quantile(u.opS, 0.5)
	p50t := quantile(t.opS, 0.5)
	p90 := 0.0
	if len(u.opS) >= minP90Ops {
		p90 = quantile(u.opS, 0.9)
	}
	c := u.ref
	m["ops"] = metric{uOps, "count"}
	m["op_s_p90"] = metric{p90, "s"}
	m["trace.overhead_frac"] = metric{ratio(p50t-p50u, p50u), "fraction"}
	m["trace.cpu_samples"] = metric{float64(samples), "count"}
	m["wall.op_s_p50"] = metric{quantile(u.wallS, 0.5), "s"}
	m["host.scale"] = metric{quantile(u.scale, 0.5), "ratio"}
	m["runtime.gc_cycles_per_op"] = metric{ratio(u.delta(0), uOps), "count"}
	m["runtime.gc_cpu_share"] = metric{ratio(u.delta(1), u.delta(2)-u.delta(3)), "fraction"}
	m["scenario.validate_ms"] = metric{sp.medianMs("scenario.validate"), "ms"}
	m["fleetio.encode_ms"] = metric{sp.medianMs("fleetio.encode"), "ms"}
	m["fleetio.decode_ms"] = metric{sp.medianMs("fleetio.decode"), "ms"}
	m["fleetio.bytes"] = metric{float64(c.FleetBytes), "B"}
	m["netem.pkts"] = metric{float64(c.Pkts), "count"}
	m["netem.drop_core"] = metric{float64(c.DropCore), "count"}
	m["netem.drop_agg"] = metric{float64(c.DropAgg), "count"}
	m["netem.drop_access"] = metric{float64(c.DropAcc), "count"}
	m["netem.drops"] = metric{float64(c.Drops), "count"}
	m["netem.aqm_drops"] = metric{float64(c.AqmDrops), "count"}
	m["netem.delivered_ratio"] = metric{ratio(float64(c.Offered-c.Drops), float64(c.Offered)), "fraction"}
	m["tcp.data_segs"] = metric{float64(c.DataSegs), "count"}
	m["tcp.retrans"] = metric{float64(c.Retrans), "count"}
	useful := 0.0
	if c.DataSegs > 0 {
		useful = 1 - float64(c.Retrans)/float64(c.DataSegs)
	}
	m["tcp.useful_ratio"] = metric{useful, "fraction"}
	m["analysis.flows"] = metric{float64(c.Flows), "count"}
	m["player.rebuffers"] = metric{float64(c.Rebuffers), "count"}
	m["player.startup_s_p50"] = metric{quantile(c.Startups, 0.5), "s"}
	m["player.starved"] = metric{float64(c.Starved), "count"}
	return m, nil
}

// writeTrace saves the traced run's spans and CPU profile in traceDir.
func writeTrace(name string, seed int64, sp *spans, prof []byte) error {
	if err := os.MkdirAll(traceDir, 0o755); err != nil {
		return err
	}
	base := filepath.Join(traceDir, fmt.Sprintf("%s-seed%d", name, seed))
	if err := sp.write(base + ".spans.json"); err != nil {
		return err
	}
	return os.WriteFile(base+".cpu.pprof", prof, 0o644)
}
