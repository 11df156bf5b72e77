// Package traffic is a determinism-rule fixture: the arrival process must
// replay byte-identically from (process, seed, rate, n) alone.
package traffic

import (
	"math/rand" // want "math/rand import in an open-loop traffic package"
	"time"
)

// Jitter is the host-RNG positive: arrival jitter must come from the
// seeded stream, not a host generator.
func Jitter() uint64 {
	return rand.Uint64()
}

// Sojourn is the wall-clock-measurement positive.
func Sojourn(start time.Time) time.Duration {
	return time.Since(start) // want "time.Since in an open-loop traffic package"
}

// Horizon is the true negative: duration arithmetic without the wall
// clock is fine.
func Horizon(d time.Duration) time.Duration {
	return 2 * d
}
