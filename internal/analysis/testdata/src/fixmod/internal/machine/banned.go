// Package machine is a determinism-rule fixture: wall clock, global rand,
// and goroutine spawns are forbidden in simulation packages.
package machine

import (
	"math/rand"
	"time"
)

// Stamp consults the wall clock: the time.Now positive.
func Stamp() int64 {
	return time.Now().UnixNano() // want "time.Now in simulation code"
}

// Jitter uses the global rand source: the math/rand positive.
func Jitter(n int) int {
	return rand.Intn(n) // want `global math/rand.Intn in simulation code`
}

// SeededJitter builds an explicitly seeded source: the true negative
// (rand.New/rand.NewSource are deterministic constructors, and *rand.Rand
// methods are always allowed).
func SeededJitter(seed int64, n int) int {
	r := rand.New(rand.NewSource(seed))
	return r.Intn(n)
}

// Race spawns a goroutine outside the event kernel: the goroutine positive.
func Race(f func()) {
	go f() // want "goroutine spawn outside internal/sim"
}
