// Package chaos is the simulator's deterministic fault-injection and
// invariant-oracle layer. It perturbs a live machine — network latency
// jitter with protocol-legal reordering, forced AMU operand-cache
// evictions, directory NACK-and-retry pressure, cache-capacity squeeze —
// while attaching runtime oracles (SWMR/sharer-sync at every directory
// transition, word-value conservation, cycle-attribution conservation,
// quiescence at barrier episodes) and a differential oracle that runs the
// same seeded workload under all five synchronization mechanisms and
// demands identical functional outcomes.
//
// Everything is driven by a splittable seeded PRNG: a failure replays from
// (config, seed) alone, with no wall-clock or host state anywhere in the
// schedule (enforced by the amolint determinism rule).
package chaos

import "fmt"

// RNG is a splittable SplitMix64 pseudo-random stream. Each injector draws
// from its own child stream derived from the trial seed and a label — not
// from consumed parent state — so adding draws to one injector never shifts
// another's sequence.
type RNG struct {
	seed  uint64
	state uint64
}

// NewRNG creates a stream from seed. Distinct seeds give independent
// streams; the same seed replays the same sequence.
func NewRNG(seed uint64) *RNG {
	return &RNG{seed: seed, state: seed}
}

// mix64 is the SplitMix64 output permutation (Steele, Lea & Flood's
// finalizer), used both for drawing and for deriving child seeds.
func mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Uint64 returns the next value of the stream.
func (r *RNG) Uint64() uint64 {
	r.state += 0x9e3779b97f4a7c15
	return mix64(r.state)
}

// Intn returns a value in [0, n). n must be positive.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic(fmt.Sprintf("chaos: Intn(%d)", n))
	}
	return int(r.Uint64() % uint64(n))
}

// Below returns true with probability permille/1000.
func (r *RNG) Below(permille int) bool {
	return r.Uint64()%1000 < uint64(permille)
}

// Split derives an independent child stream identified by label. The child
// seed depends only on the parent's original seed and the label — never on
// how many values the parent has drawn — so injector streams stay aligned
// across code changes that add or remove draws elsewhere.
func (r *RNG) Split(label string) *RNG {
	h := uint64(14695981039346656037) // FNV-1a offset basis
	for i := 0; i < len(label); i++ {
		h ^= uint64(label[i])
		h *= 1099511628211
	}
	return NewRNG(mix64(r.seed ^ h))
}
