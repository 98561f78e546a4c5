package main

import "time"

// Host calibration. The machines this benchmark runs on are shared, and
// their speed drifts by a quarter or more within minutes (CPU steal,
// contended caches). A fixed synthetic kernel shaped like an event
// simulator's inner loop (binary-heap pops and pushes plus scattered
// table updates) is timed right after every operation, and each
// operation's time is rescaled to a host on which one kernel unit takes
// calRefS. The kernel runs no simulator code, so a change to the
// simulator moves the rescaled times and leaves the calibration alone.

// calRefS is one kernel unit's time on the reference host (README.md,
// "Baseline"); rescaled times are seconds on that host.
const calRefS = 0.0017

// calShare is the calibration time spent per second of operation.
const calShare = 0.1

const (
	calHeapN  = 1 << 15
	calTableN = 1 << 20
	calIters  = 12000
)

// The kernel's state lives in global arrays, not on the heap, so
// calibration neither allocates nor changes the collector's pacing.
var (
	calHeap  [calHeapN]uint64
	calTable [calTableN]uint32
	calX     uint64 = 88172645463325252
	calInit  bool
)

func calNext() uint64 {
	calX ^= calX << 13
	calX ^= calX >> 7
	calX ^= calX << 17
	return calX
}

// calSift restores the heap property below i.
func calSift(i int) {
	h := &calHeap
	for {
		l := 2*i + 1
		if l >= calHeapN {
			return
		}
		c := l
		if r := l + 1; r < calHeapN && h[r] < h[l] {
			c = r
		}
		if h[i] <= h[c] {
			return
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
}

// calUnit runs the kernel once and returns its time in seconds.
func calUnit() float64 {
	if !calInit {
		for i := range calHeap {
			calHeap[i] = calNext() & 0xffffff
		}
		for i := calHeapN/2 - 1; i >= 0; i-- {
			calSift(i)
		}
		calInit = true
	}
	start := time.Now()
	for i := 0; i < calIters; i++ {
		// Pop the earliest event and schedule its successor: replace
		// the root and sift down.
		t := calHeap[0]
		calHeap[0] = t + calNext()&0xffff
		calSift(0)
		k := uint32(calNext()) & (calTableN - 1)
		calTable[k] += uint32(t)
	}
	return time.Since(start).Seconds()
}

// hostScale runs the kernel for about calShare of opS seconds (at
// least one unit) and returns the factor that rescales times measured
// now to the reference host.
func hostScale(opS float64) float64 {
	var spent float64
	units := 0
	for units == 0 || spent < calShare*opS {
		spent += calUnit()
		units++
	}
	return calRefS / (spent / float64(units))
}
