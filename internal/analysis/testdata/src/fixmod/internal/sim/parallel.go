// parallel.go is the determinism rule's parallel-kernel fixture: a
// miniature kernel exercising every ban of the parallel* row. The
// simulation-code row covers it too; each site is still reported once.
package sim

import (
	"math/rand" // want `math/rand import in the parallel kernel`
	"time"
)

// coordinator stands in for the real kernel's Parallel struct.
type coordinator struct {
	seq    uint64
	now    uint64
	shards []*shardState
}

// shardState is one partition, holding the coordinator back-pointer the
// write check keys on.
type shardState struct {
	par      *coordinator
	now      uint64
	executed uint64
}

// Seed is the rand-import carrier: the constructors are ones the global
// math/rand ban permits, so only the import line is flagged.
func Seed() *rand.Rand {
	return rand.New(rand.NewSource(1))
}

// Elapsed is the wall-clock positive (a simulation-code row ban).
func Elapsed(start time.Time) time.Duration {
	return time.Since(start) // want "time.Since in the parallel kernel"
}

// Merge is the raw-map-range positive: the strict ban, reported once.
func Merge(pending map[uint64]int) int {
	n := 0
	for at := range pending { // want `in the parallel kernel: the merge path has no order-independent loops`
		n += pending[at]
	}
	return n
}

// Push is the unsynchronized-shared-write positive: shard code bumping the
// coordinator's sequence counter without declaring coordinator context.
func (s *shardState) Push() {
	s.par.seq++ // want `write through the coordinator back-pointer`
	s.executed++
}

// PushAssign covers the assignment form of the same hazard.
func (s *shardState) PushAssign(at uint64) {
	s.par.now = at // want `write through the coordinator back-pointer`
}

// Attach is the annotated true negative: the write is declared to run only
// between windows.
func (s *shardState) Attach() {
	s.par.seq++ //lint:coordinator-context — fixture: runs between windows only
}

// Advance is the plain true negative: shard-local writes (and reads
// through .par) are the normal case.
func (s *shardState) Advance(at uint64) {
	if at > s.now {
		s.now = at
	}
	_ = s.par.seq
}
