package sim

import (
	"math/rand"
	"testing"
	"time"
)

// The wheel and the lanes must be invisible: every workload fires in
// exactly the (time, insertion-order) sequence a plain sorted event
// list produces. refSched is that sorted list — an O(n^2) executable
// spec of the scheduler contract — and runWorkload drives both
// implementations through identical randomized schedule/stop/re-arm
// scripts spanning every wheel tier (sub-tick, levels 0-2, and
// far-future overflow) and every lane operation. For refSched a lane
// arm is "cancel the lane's previous event, then schedule with the
// borrowed seq".

type refEvent struct {
	at      time.Duration
	seq     uint64
	fn      func()
	stopped *bool
}

type refSched struct {
	now time.Duration
	seq uint64
	evs []refEvent

	laneFns []func()
	lanes   []*bool // stop flag of each lane's live event; nil when idle
}

func (r *refSched) after(d time.Duration, fn func()) {
	if d < 0 {
		d = 0
	}
	r.evs = append(r.evs, refEvent{at: r.now + d, seq: r.seq, fn: fn})
	r.seq++
}

func (r *refSched) timer(d time.Duration, fn func()) func() bool {
	if d < 0 {
		d = 0
	}
	stopped := new(bool)
	fired := new(bool)
	r.evs = append(r.evs, refEvent{
		at:  r.now + d,
		seq: r.seq,
		fn: func() {
			*fired = true
			fn()
		},
		stopped: stopped,
	})
	r.seq++
	return func() bool {
		if *stopped || *fired {
			return false
		}
		*stopped = true
		return true
	}
}

// next returns the index of the earliest live event, or -1.
func (r *refSched) next() int {
	best := -1
	for i := range r.evs {
		e := &r.evs[i]
		if e.stopped != nil && *e.stopped {
			continue
		}
		if best < 0 || e.at < r.evs[best].at ||
			(e.at == r.evs[best].at && e.seq < r.evs[best].seq) {
			best = i
		}
	}
	return best
}

func (r *refSched) step(i int) {
	ev := r.evs[i]
	r.evs = append(r.evs[:i], r.evs[i+1:]...)
	r.now = ev.at
	ev.fn()
}

func (r *refSched) run() {
	for {
		i := r.next()
		if i < 0 {
			return
		}
		r.step(i)
	}
}

func (r *refSched) runUntil(deadline time.Duration) {
	for {
		i := r.next()
		if i < 0 || r.evs[i].at > deadline {
			break
		}
		r.step(i)
	}
	if r.now < deadline {
		r.now = deadline
	}
}

func (r *refSched) nowAt() time.Duration { return r.now }

func (r *refSched) newLane(fn func()) int {
	r.laneFns = append(r.laneFns, fn)
	r.lanes = append(r.lanes, nil)
	return len(r.lanes) - 1
}

func (r *refSched) reserve() uint64 {
	r.seq++
	return r.seq - 1
}

func (r *refSched) armLane(lane int, at time.Duration, seq uint64) {
	r.disarmLane(lane)
	stopped := new(bool)
	r.lanes[lane] = stopped
	r.evs = append(r.evs, refEvent{at: at, seq: seq, fn: r.laneFns[lane], stopped: stopped})
}

func (r *refSched) disarmLane(lane int) {
	if r.lanes[lane] != nil {
		*r.lanes[lane] = true
		r.lanes[lane] = nil
	}
}

func (r *refSched) reset() {
	r.now, r.seq, r.evs = 0, 0, nil
	clear(r.lanes)
}

func (r *refSched) pending() int {
	n := 0
	for i := range r.evs {
		if e := &r.evs[i]; e.stopped == nil || !*e.stopped {
			n++
		}
	}
	return n
}

// wlDriver abstracts the surface the workload script uses, so the same
// script runs against the real scheduler and the reference.
type wlDriver interface {
	after(d time.Duration, fn func())
	timer(d time.Duration, fn func()) func() bool
	run()
	runUntil(deadline time.Duration)
	nowAt() time.Duration
	pending() int
	newLane(fn func()) int
	reserve() uint64
	armLane(lane int, at time.Duration, seq uint64)
	disarmLane(lane int)
	reset()
}

type realDriver struct{ s *Scheduler }

func (r realDriver) after(d time.Duration, fn func()) { r.s.After(d, fn) }
func (r realDriver) timer(d time.Duration, fn func()) func() bool {
	return r.s.TimerAfter(d, fn).Stop
}
func (r realDriver) run()                            { r.s.Run() }
func (r realDriver) runUntil(deadline time.Duration) { r.s.RunUntil(deadline) }
func (r realDriver) nowAt() time.Duration            { return r.s.Now() }
func (r realDriver) pending() int                    { return r.s.Pending() }
func (r realDriver) newLane(fn func()) int           { return int(r.s.NewLane(laneFunc(fn))) }
func (r realDriver) reserve() uint64                 { return r.s.ReserveSeq() }
func (r realDriver) armLane(lane int, at time.Duration, seq uint64) {
	r.s.ArmLane(int32(lane), at, seq)
}
func (r realDriver) disarmLane(lane int) { r.s.DisarmLane(int32(lane)) }
func (r realDriver) reset()              { r.s.Reset(1) }

// laneFunc adapts a closure to Task for lane registrations.
type laneFunc func()

func (f laneFunc) RunTask(int32) { f() }

type traceEntry struct {
	id int
	at time.Duration
}

// runWorkload drives d through a deterministic random script: an
// initial batch of events whose callbacks spawn more events, arm
// cancellable timers, stop/re-arm earlier timers, and arm, re-arm
// (earlier or later) and disarm lanes with fresh or previously
// reserved (borrowed) seqs — lane tasks do the same, so lanes arm
// other lanes and themselves. Half of the nlanes lanes register up
// front and the rest while others are armed, so tree growth happens
// mid-run; some callbacks record Pending from inside the run. Delays
// are drawn from every tier the scheduler routes between — exact ties,
// sub-tick, wheel levels 0/1/2, and beyond-horizon overflow — so
// tier-crossing reinsertions and cross-tier timestamp ties are all
// exercised. A final phase resets
// the driver with lanes and events pending and runs a second script
// on the same lane registrations. The trace (and the embedded rng)
// diverges at the first ordering difference, so equal traces mean
// bit-identical firing order.
func runWorkload(d wlDriver, seed int64, n, nlanes int) []traceEntry {
	rng := rand.New(rand.NewSource(seed))
	var trace []traceEntry
	var stops []func() bool
	var borrowed []uint64 // reserved seqs not yet lent to a lane
	laneID := make([]int, nlanes)
	laneAt := make([]time.Duration, nlanes)
	armed := make([]bool, nlanes)
	id := 0
	delay := func() time.Duration {
		switch rng.Intn(7) {
		case 0:
			return 0 // exact tie with now
		case 1:
			return time.Duration(rng.Int63n(1 << tickShift)) // sub-tick: heap
		case 2:
			return time.Duration(rng.Int63n(int64(100 * time.Millisecond))) // level 0
		case 3:
			return time.Duration(rng.Int63n(int64(30 * time.Second))) // level 1
		case 4:
			return time.Duration(rng.Int63n(int64(2 * time.Hour))) // level 2
		case 5:
			return 3*time.Hour + time.Duration(rng.Int63n(int64(8*time.Hour))) // overflow
		default:
			// Tick-aligned, so distinct events collide on slot starts.
			return time.Duration(rng.Int63n(512)) << tickShift
		}
	}
	nreg := 0 // lanes registered so far
	var register func()
	armLane := func() {
		l := rng.Intn(nreg)
		now := d.nowAt()
		at := now + delay()
		if armed[l] {
			if rng.Intn(2) == 0 {
				at = now + (laneAt[l]-now)/2 // re-arm earlier
			} else {
				at = laneAt[l] + delay() // re-arm later
			}
		}
		seq := d.reserve()
		if k := len(borrowed); k > 0 && rng.Intn(2) == 0 {
			seq = borrowed[k-1]
			borrowed = borrowed[:k-1]
		}
		id++
		laneID[l], laneAt[l], armed[l] = id, at, true
		d.armLane(l, at, seq)
	}
	var act func(myID int)
	fire := func(myID int) func() {
		return func() {
			trace = append(trace, traceEntry{myID, d.nowAt()})
			act(myID)
		}
	}
	act = func(myID int) {
		switch r := rng.Intn(13); {
		case r < 3 && myID < n*6: // spawn follow-up events
			for k := rng.Intn(2); k >= 0; k-- {
				id++
				d.after(delay(), fire(id))
			}
		case r < 6 && myID < n*6: // arm a cancellable timer
			id++
			stops = append(stops, d.timer(delay(), fire(id)))
		case r < 8 && len(stops) > 0: // stop one; re-arm if it was live
			if stops[rng.Intn(len(stops))]() && myID < n*6 {
				id++
				d.after(delay(), fire(id))
			}
		case r < 10 && nreg > 0 && myID < n*6: // arm or re-arm a lane
			armLane()
		case r < 11 && nreg > 0: // disarm a lane
			l := rng.Intn(nreg)
			armed[l] = false
			d.disarmLane(l)
		case r < 12: // reserve seqs to lend to later lane arms
			for k := rng.Intn(3); k >= 0; k-- {
				borrowed = append(borrowed, d.reserve())
			}
		case nreg < nlanes: // register a lane while others are armed
			register()
		default:
			trace = append(trace, traceEntry{-d.pending() - 2, d.nowAt()})
		}
	}
	register = func() {
		l := nreg
		nreg++
		d.newLane(func() {
			armed[l] = false
			trace = append(trace, traceEntry{laneID[l], d.nowAt()})
			act(laneID[l])
		})
	}
	for nreg < (nlanes+1)/2 {
		register()
	}
	start := func() {
		for i := 0; i < n; i++ {
			id++
			switch {
			case i%3 == 0:
				stops = append(stops, d.timer(delay(), fire(id)))
			case nreg > 0 && i%5 == 1:
				armLane()
			default:
				d.after(delay(), fire(id))
			}
		}
	}
	start()
	// Stop a few timers before anything runs (pure-wheel cancellation).
	for i := 0; i < len(stops); i += 4 {
		stops[i]()
	}
	d.runUntil(90 * time.Second)
	trace = append(trace, traceEntry{-1, d.nowAt()})
	trace = append(trace, traceEntry{-d.pending() - 2, 0})
	d.run()
	trace = append(trace, traceEntry{-1, d.nowAt()})

	// Reset with lanes and events pending, then run a second script on
	// the same lane registrations.
	start()
	d.runUntil(time.Second)
	d.reset()
	stops, borrowed = nil, nil
	clear(armed)
	for nreg < nlanes {
		register()
	}
	trace = append(trace, traceEntry{-d.pending() - 2, d.nowAt()})
	start()
	d.run()
	trace = append(trace, traceEntry{-1, d.nowAt()})
	return trace
}

func diffTraces(t *testing.T, seed int64, ref, got []traceEntry) {
	t.Helper()
	if len(ref) != len(got) {
		t.Fatalf("seed %d: trace lengths differ: ref %d vs wheel %d", seed, len(ref), len(got))
	}
	for i := range ref {
		if ref[i] != got[i] {
			t.Fatalf("seed %d: traces diverge at %d: ref %+v vs wheel %+v", seed, i, ref[i], got[i])
		}
	}
}

// TestWheelHeapEquivalence pins the tentpole invariant: the scheduler
// fires randomized timer and lane workloads in exactly the order the
// reference sorted-list scheduler does. The lane counts cross every
// tree-capacity growth from one leaf to 256.
func TestWheelHeapEquivalence(t *testing.T) {
	n := 48
	seeds := 24
	if testing.Short() {
		seeds = 6
	}
	for _, lanes := range []int{0, 1, 2, 3, 65, 129} {
		for seed := int64(1); seed <= int64(seeds); seed++ {
			ref := runWorkload(&refSched{}, seed, n, lanes)
			got := runWorkload(realDriver{NewScheduler(1)}, seed, n, lanes)
			diffTraces(t, seed, ref, got)
		}
	}
}

// FuzzWheelEquivalence lets the fuzzer hunt for workload shapes where
// the wheel's or the lanes' firing order deviates from the reference.
func FuzzWheelEquivalence(f *testing.F) {
	f.Add(int64(1), uint8(16), uint8(0))
	f.Add(int64(42), uint8(64), uint8(3))
	f.Add(int64(-7), uint8(3), uint8(65))
	f.Add(int64(5), uint8(40), uint8(129))
	f.Fuzz(func(t *testing.T, seed int64, n, lanes uint8) {
		size := int(n%96) + 1
		nl := int(lanes % 130)
		ref := runWorkload(&refSched{}, seed, size, nl)
		got := runWorkload(realDriver{NewScheduler(1)}, seed, size, nl)
		diffTraces(t, seed, ref, got)
	})
}

// TestWheelPendingTiers checks Pending() sees events parked in every
// tier and that cancellation is reflected before any cascade runs.
func TestWheelPendingTiers(t *testing.T) {
	s := NewScheduler(1)
	delays := []time.Duration{
		100 * time.Microsecond, // sub-tick: heap
		50 * time.Millisecond,  // level 0
		10 * time.Second,       // level 1
		time.Hour,              // level 2
		6 * time.Hour,          // overflow: heap
	}
	for _, d := range delays {
		s.After(d, func() {})
	}
	tm := s.TimerAfter(20*time.Second, func() { t.Fatal("stopped timer fired") })
	if got := s.Pending(); got != len(delays)+1 {
		t.Fatalf("Pending = %d, want %d", got, len(delays)+1)
	}
	tm.Stop()
	if got := s.Pending(); got != len(delays) {
		t.Fatalf("Pending after Stop = %d, want %d", got, len(delays))
	}
	s.RunUntil(time.Minute)
	if s.Pending() != 2 { // hour + 6h still parked
		t.Fatalf("Pending after RunUntil(1m) = %d, want 2", s.Pending())
	}
	s.Run()
	if s.Pending() != 0 {
		t.Fatalf("Pending after Run = %d, want 0", s.Pending())
	}
	if s.Now() != 6*time.Hour {
		t.Fatalf("clock = %v, want 6h", s.Now())
	}
}

// TestWheelTieAcrossTiers pins seq-order ties between an event parked
// early in the wheel and one scheduled later straight into the heap
// for the same instant: insertion order must win.
func TestWheelTieAcrossTiers(t *testing.T) {
	s := NewScheduler(1)
	target := 600 * time.Millisecond
	var got []int
	s.At(target, func() { got = append(got, 1) }) // parked in the wheel
	s.At(target-time.Millisecond, func() {
		s.At(target, func() { got = append(got, 2) }) // near-term: heap
		s.At(target, func() { got = append(got, 3) })
	})
	s.Run()
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("tie across tiers fired as %v, want [1 2 3]", got)
	}
}

// TestWheelStopInsideWheel cancels a timer that lives deep in the
// wheel and checks it neither fires nor leaks into Pending, while an
// unrelated later event still fires at the right time.
func TestWheelStopInsideWheel(t *testing.T) {
	s := NewScheduler(1)
	tm := s.TimerAfter(45*time.Minute, func() { t.Fatal("stopped timer fired") })
	fired := false
	s.After(time.Hour, func() { fired = true })
	if !tm.Stop() {
		t.Fatal("Stop on parked timer reported false")
	}
	s.Run()
	if !fired {
		t.Fatal("surviving event did not fire")
	}
	if s.Now() != time.Hour {
		t.Fatalf("clock = %v, want 1h", s.Now())
	}
}

// TestWheelRearmChurn drives the RTO pattern — arm, stop before
// maturity, re-arm — through wheel tiers and verifies the survivor
// count and final clock.
func TestWheelRearmChurn(t *testing.T) {
	s := NewScheduler(1)
	fired := 0
	var rearm func(depth int)
	rearm = func(depth int) {
		tm := s.TimerAfter(time.Duration(depth+1)*time.Second, func() { t.Fatal("cancelled RTO fired") })
		s.After(500*time.Millisecond, func() {
			if !tm.Stop() {
				t.Fatal("RTO already fired before Stop")
			}
			if depth > 0 {
				rearm(depth - 1)
			} else {
				s.After(250*time.Millisecond, func() { fired++ })
			}
		})
	}
	rearm(20)
	s.Run()
	if fired != 1 {
		t.Fatalf("fired = %d, want 1", fired)
	}
}

// nextOccupiedBits is the reference for nextOccupied's word scan: it
// probes slots curSlot+1, curSlot+2, ... around the level one bit at a
// time and returns the first occupied distance.
func nextOccupiedBits(bm *[wheelSlots / 64]uint64, curSlot int) int {
	for d := 1; d <= wheelSlots; d++ {
		slot := (curSlot + d) & wheelMask
		if bm[slot>>6]&(1<<(slot&63)) != 0 {
			return d
		}
	}
	return 0
}

// checkNextOccupied compares the word scan with the bit scan for one
// occupancy pattern at every curSlot.
func checkNextOccupied(t *testing.T, s *Scheduler, bm [wheelSlots / 64]uint64) {
	t.Helper()
	s.wbits[0] = bm
	for cur := 0; cur < wheelSlots; cur++ {
		want := nextOccupiedBits(&bm, cur)
		if got := s.nextOccupied(0, cur); got != want {
			t.Fatalf("bits %#x curSlot %d: nextOccupied = %d, bit scan = %d", bm, cur, got, want)
		}
	}
}

// TestNextOccupiedMatchesBitScan pins the word-at-a-time scan to the
// bit-by-bit one at every curSlot: an empty level, every single
// occupied slot (which covers one bit in each word, wrap-around past
// slot 255 and curSlot itself at distance wheelSlots), word-boundary
// pairs and random fills of every density.
func TestNextOccupiedMatchesBitScan(t *testing.T) {
	s := NewScheduler(1)
	var bm [wheelSlots / 64]uint64
	checkNextOccupied(t, s, bm) // empty level
	for slot := 0; slot < wheelSlots; slot++ {
		bm = [wheelSlots / 64]uint64{}
		bm[slot>>6] = 1 << (slot & 63)
		checkNextOccupied(t, s, bm)
	}
	for w := range bm {
		// The last slot of one word and the first of the next.
		bm = [wheelSlots / 64]uint64{}
		bm[w] = 1 << 63
		bm[(w+1)%len(bm)] |= 1
		checkNextOccupied(t, s, bm)
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 200; i++ {
		for w := range bm {
			bm[w] = rng.Uint64()
			for k := i % 6; k > 0; k-- {
				bm[w] &= rng.Uint64() // sparser fills as k grows
			}
		}
		checkNextOccupied(t, s, bm)
	}
}
