// Package chaos is a determinism-rule fixture: the fault-injection layer
// may not touch math/rand or the wall clock in any form.
package chaos

import (
	"math/rand" // want "math/rand import in the chaos layer"
	"time"
)

// Jitter draws from a seeded source — still flagged: the import alone is
// the violation, since even a seeded *rand.Rand couples streams by draw
// order.
func Jitter(seed int64, n int) int {
	r := rand.New(rand.NewSource(seed))
	return r.Intn(n)
}

// TimeSeed is the time-based-seeding positive.
func TimeSeed() uint64 {
	return uint64(time.Now().UnixNano()) // want "time.Now in the chaos layer"
}

// Elapsed is the wall-clock-measurement positive.
func Elapsed(start time.Time) time.Duration {
	return time.Since(start) // want "time.Since in the chaos layer"
}

// Backoff uses only time's types and constants: the true negative (types
// and durations are fine; only the wall-clock entry points are banned).
func Backoff(n int) time.Duration {
	return time.Duration(n) * time.Millisecond
}
