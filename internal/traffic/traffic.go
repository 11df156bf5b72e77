// Package traffic implements deterministic open-loop arrival processes for
// the request-injection harness: a Schedule assigns every request an
// absolute injection cycle before the simulation starts, drawn from a
// seeded SplitMix64 stream (the same discipline as internal/chaos — child
// streams derive from seed and label, never from host state or draw
// order). Workers claim requests by ticket and sleep until the scheduled
// cycle via ordinary sim events, so a schedule produces byte-identical
// behaviour on the sequential and parallel event kernels at any worker
// count.
//
// The package is a leaf: no simulator imports, no wall clock, no
// math/rand (enforced by the amolint determinism rule).
package traffic

import (
	"fmt"
	"math"
	"strings"
)

// Process selects the arrival process.
type Process int

const (
	// Fixed spaces arrivals evenly at the offered rate.
	Fixed Process = iota
	// Poisson draws exponential inter-arrival gaps at the offered rate —
	// the open-loop arrival model of queueing analysis.
	Poisson
)

// String returns the CLI spelling; it round-trips with ParseProcess.
func (p Process) String() string {
	switch p {
	case Fixed:
		return "fixed"
	case Poisson:
		return "poisson"
	}
	return fmt.Sprintf("Process(%d)", int(p))
}

// Processes lists the arrival processes in presentation order.
var Processes = []Process{Fixed, Poisson}

// ParseProcess parses an arrival-process name, case-insensitively.
func ParseProcess(s string) (Process, error) {
	switch strings.ToLower(s) {
	case "fixed":
		return Fixed, nil
	case "poisson":
		return Poisson, nil
	}
	return 0, fmt.Errorf("traffic: unknown arrival process %q (fixed, poisson)", s)
}

// rng is a SplitMix64 stream (the chaos seeding discipline): the sequence
// depends only on the seed, so a schedule replays from (process, seed,
// rate, n) alone.
type rng uint64

func mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (r *rng) next() uint64 {
	*r += 0x9e3779b97f4a7c15
	return mix64(uint64(*r))
}

// Schedule is a realized arrival process: the absolute injection cycle of
// every request, nondecreasing in request order. It is computed up front on
// the host — requests per run scale to the millions, so realization is a
// single allocation and a linear pass, never a per-event draw inside the
// simulator.
type Schedule struct {
	times []uint64
}

// New realizes n arrivals of process p at ratePerKCycle requests per 1000
// simulated cycles, starting after cycle start. The same (p, seed, rate, n,
// start) always yields the identical schedule.
func New(p Process, seed uint64, ratePerKCycle, n int, start uint64) (*Schedule, error) {
	if ratePerKCycle < 1 {
		return nil, fmt.Errorf("traffic: rate %d/kcycle must be >= 1", ratePerKCycle)
	}
	if n < 0 {
		return nil, fmt.Errorf("traffic: negative request count %d", n)
	}
	times := make([]uint64, n)
	switch p {
	case Fixed:
		for i := range times {
			times[i] = start + uint64(i+1)*1000/uint64(ratePerKCycle)
		}
	case Poisson:
		r := rng(mix64(seed) ^ 0x7f4a7c15)
		mean := 1000.0 / float64(ratePerKCycle)
		t := start
		for i := range times {
			// Inverse-CDF exponential draw from the top 53 bits, clamped
			// away from u=0 so the gap is finite; every gap is >= 1 cycle.
			u := float64(r.next()>>11) / (1 << 53)
			if u == 0 {
				u = 1.0 / (1 << 53)
			}
			gap := uint64(-math.Log(u) * mean)
			if gap < 1 {
				gap = 1
			}
			t += gap
			times[i] = t
		}
	default:
		return nil, fmt.Errorf("traffic: unknown process %v", p)
	}
	return &Schedule{times: times}, nil
}

// Len reports the number of arrivals.
func (s *Schedule) Len() int { return len(s.times) }

// At returns the absolute injection cycle of request i.
func (s *Schedule) At(i int) uint64 { return s.times[i] }

// Horizon returns the last arrival cycle (start for an empty schedule is
// unknown; Horizon reports 0 when Len is 0).
func (s *Schedule) Horizon() uint64 {
	if len(s.times) == 0 {
		return 0
	}
	return s.times[len(s.times)-1]
}
