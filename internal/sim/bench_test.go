package sim

import (
	"fmt"
	"testing"
)

// Kernel microbenchmarks: the simulator's host-side speed bounds how large
// an experiment is practical, so we track the cost of the two hot paths —
// event scheduling/dispatch and process context switches.

func BenchmarkScheduleAndRun(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e := NewSequential()
		for j := 0; j < 1000; j++ {
			schedule(e, Time(j%97), func() {})
		}
		if err := e.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEventQueue measures the event queue in steady state at a fixed
// number of pending events: each dispatched event schedules one successor
// at a paperDelay. One op is one event. BenchmarkScheduleAndRun never
// holds more than 1000 events, all due within 97 cycles; the large pending
// sets of the 256-CPU runs are where queue cost grows.
func BenchmarkEventQueue(b *testing.B) {
	for _, pending := range []int{64, 32768} {
		b.Run(fmt.Sprintf("pending=%d", pending), func(b *testing.B) {
			e := NewSequential()
			rng := uint64(pending)
			left := -1 // unbounded while warming
			var hold func(any)
			hold = func(arg any) {
				if left == 0 {
					e.Stop()
					return
				}
				left--
				e.ScheduleCall(paperDelay(&rng), hold, arg)
			}
			for i := 0; i < pending; i++ {
				e.ScheduleCall(paperDelay(&rng), hold, nil)
			}
			// Warm up until the delays have spread across the wheel and
			// the arena and heap have reached their steady sizes.
			if err := e.RunUntil(4 * wheelSpan); err != ErrDeadline {
				b.Fatalf("warm-up RunUntil = %v, want ErrDeadline", err)
			}
			left = b.N
			b.ReportAllocs()
			b.ResetTimer()
			if err := e.Run(); err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/event")
			if e.Pending() != pending-1 {
				b.Fatalf("%d events pending after the run, want %d", e.Pending(), pending-1)
			}
		})
	}
}

// paperDelay draws a scheduling delay from a mix shaped like the paper
// tables' pushes: 17% at zero delay, 95.7% under 1024 cycles, 99.8% under
// 2048, and the rest up to 8192 cycles ahead.
func paperDelay(rng *uint64) Time {
	x := *rng
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	*rng = x
	r, v := x%1000, Time(x>>32)
	switch {
	case r < 170:
		return 0
	case r < 600:
		return 1 + v%64
	case r < 957:
		return 64 + v%960
	case r < 998:
		return 1024 + v%1024
	default:
		return 2048 + v%6144
	}
}

// BenchmarkProcessSwitch measures 1000 process context switches per op:
// two processes sleep in phase, so each finds the other's wake due first
// and every sleep parks.
func BenchmarkProcessSwitch(b *testing.B) {
	e := NewSequential()
	const hops = 500 // per process
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for k := 0; k < 2; k++ {
			e.Spawn("p", 0, func(p *Process) {
				for j := 0; j < hops; j++ {
					p.Sleep(1)
				}
			})
		}
		if err := e.Run(); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	e.Shutdown()
}

// BenchmarkSleepRunAhead measures 1000 sleeps per op by one lone process:
// nothing else is queued, so every sleep runs ahead without parking.
func BenchmarkSleepRunAhead(b *testing.B) {
	e := NewSequential()
	const hops = 1000
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Spawn("p", 0, func(p *Process) {
			for j := 0; j < hops; j++ {
				p.Sleep(1)
			}
		})
		if err := e.Run(); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	e.Shutdown()
}
