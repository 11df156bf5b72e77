// Package dsm is the second backend fixture of the determinism rule: the
// disaggregated shared-memory backend is held to the same contract.
package dsm

import "time"

// Elapsed is the wall-clock-measurement positive.
func Elapsed(start time.Time) time.Duration {
	return time.Since(start) // want "time.Since in a backend package"
}

// Invalidate is the raw-map-range positive on the dsm side.
func Invalidate(sharers map[uint64]bool) int {
	n := 0
	for addr := range sharers { // want `nondeterministic iteration over map\[uint64\]bool in a backend package`
		if sharers[addr] {
			n++
		}
	}
	return n
}

// RemoteCost is the true negative: slice iteration and duration math are
// fine.
func RemoteCost(hops []int) int {
	total := 0
	for _, h := range hops {
		total += h
	}
	return total
}
