// Package syncron is a determinism-rule fixture: a memory-system backend
// may not touch math/rand, the wall clock, or raw map iteration.
package syncron

import (
	"math/rand" // want "math/rand import in a backend package"
	"time"
)

// Backoff draws a retry delay from a seeded source — still flagged: the
// import alone is the violation, since even a seeded *rand.Rand couples
// the backend's schedule to host draw order.
func Backoff(seed int64, n int) int {
	r := rand.New(rand.NewSource(seed))
	return r.Intn(n)
}

// Stamp is the wall-clock positive.
func Stamp() uint64 {
	return uint64(time.Now().UnixNano()) // want "time.Now in a backend package"
}

// DrainTable is the raw-map-range positive: waking waiters in map order
// reorders the event stream between runs.
func DrainTable(waiters map[int]uint64) uint64 {
	var sum uint64
	for _, v := range waiters { // want `nondeterministic iteration over map\[int\]uint64 in a backend package`
		sum += v
	}
	return sum
}

// CountTable is the annotated negative: pure counting commutes, so the
// order-independent annotation suppresses the diagnostic.
func CountTable(waiters map[int]uint64) int {
	n := 0
	//lint:order-independent counting commutes
	for range waiters {
		n++
	}
	return n
}

// Hold uses only time's types and constants: the true negative.
func Hold(n int) time.Duration {
	return time.Duration(n) * time.Microsecond
}
