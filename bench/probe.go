package bench

import (
	"sort"
	"time"
)

// On a shared host the machine's speed drifts: raw times of the same work
// move by ±10% from one minute to the next and by more in bursts of a few
// seconds. The benchmark therefore runs a calibration probe between units
// of work and before every set-up, and scales each one's time by refProbe
// over the duration of the probes next to it: seconds on a host where the
// probe takes refProbe. The probe is stdlib-only work shaped like the
// simulator's dominant host cost, goroutines parking and waking each
// other, so a change to the simulator moves the scaled time while a change
// in host speed moves both sides of the ratio. Raw times are reported
// beside the scaled ones.

// refProbe is the probe's median duration on the reference host (two cores
// of an x86-64 container, Go 1.24).
const refProbe = 8 * time.Millisecond

// probeRuns is how many times probe runs the kernel; it reports their
// median, so a burst of noise in one run does not skew it.
const probeRuns = 3

// probe returns the median duration of probeRuns runs of the kernel.
func probe() time.Duration {
	var d [probeRuns]time.Duration
	for i := range d {
		start := time.Now()
		probeKernel()
		d[i] = time.Since(start)
	}
	sort.Slice(d[:], func(i, j int) bool { return d[i] < d[j] })
	return d[probeRuns/2]
}

// probeSink keeps the kernel's result live.
var probeSink uint64

// probeKernel hands a token back and forth between two goroutines over
// unbuffered channels, the way simulated processes park and wake.
func probeKernel() {
	ping, pong := make(chan uint64), make(chan uint64)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for v := range ping {
			pong <- v + 1
		}
	}()
	x := uint64(1)
	for i := 0; i < 20000; i++ {
		ping <- x
		x = <-pong
	}
	close(ping)
	<-done
	probeSink += x
}
