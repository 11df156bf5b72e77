package directory

import (
	"math/rand"
	"sort"
	"testing"
)

// refSet is the oracle: a plain map with sorted-slice iteration, the
// semantics the old sorted-slice sharer list had.
type refSet map[int]bool

func (r refSet) slice() []int {
	out := make([]int, 0, len(r))
	for cpu := range r {
		out = append(out, cpu)
	}
	sort.Ints(out)
	return out
}

// checkAgainst asserts the sharerSet matches the oracle: count, membership
// of every relevant CPU, and ascending iteration with dense burst indices.
func checkAgainst(t *testing.T, s *sharerSet, ref refSet, procs int, step int) {
	t.Helper()
	if s.count() != len(ref) {
		t.Fatalf("step %d: count = %d, want %d", step, s.count(), len(ref))
	}
	want := ref.slice()
	got := s.slice()
	if len(got) != len(want) {
		t.Fatalf("step %d: slice = %v, want %v", step, got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("step %d: slice = %v, want %v", step, got, want)
		}
	}
	idx := 0
	for it := s.iter(); ; {
		i, cpu, ok := it.next()
		if !ok {
			break
		}
		if i != idx || cpu != want[idx] {
			t.Fatalf("step %d: iter yielded (%d, %d), want (%d, %d)", step, i, cpu, idx, want[idx])
		}
		idx++
	}
	if idx != len(want) {
		t.Fatalf("step %d: iter yielded %d elements, want %d", step, idx, len(want))
	}
	for _, cpu := range []int{0, procs / 2, procs - 1} {
		if s.has(cpu) != ref[cpu] {
			t.Fatalf("step %d: has(%d) = %v, want %v", step, cpu, s.has(cpu), ref[cpu])
		}
	}
	// Representation invariant: the exact list only while the population is
	// small enough, the bitmap only while it is above the demotion floor.
	if !s.coarse && s.n > sharerListMax {
		t.Fatalf("step %d: exact list overfull (%d)", step, s.n)
	}
	if s.coarse && s.n <= sharerListMax/2 {
		t.Fatalf("step %d: bitmap population %d at or below demotion floor", step, s.n)
	}
}

// TestSharerSetProperty drives random add/remove/clear sequences through
// the sharerSet and the map oracle, checking membership, iteration order,
// and burst indices after every step — with CPU distributions chosen to
// cross the promote/demote boundary repeatedly.
func TestSharerSetProperty(t *testing.T) {
	for _, procs := range []int{8, 32, 100, 4096} {
		for seed := int64(0); seed < 8; seed++ {
			rng := rand.New(rand.NewSource(seed*977 + int64(procs)))
			s := &sharerSet{procs: procs}
			ref := refSet{}
			steps := 400
			for step := 0; step < steps; step++ {
				cpu := rng.Intn(procs)
				switch op := rng.Intn(10); {
				case op < 5: // add
					s.add(cpu)
					ref[cpu] = true
				case op < 9: // remove
					s.remove(cpu)
					delete(ref, cpu)
				default: // clear
					s.clear()
					ref = refSet{}
				}
				checkAgainst(t, s, ref, procs, step)
			}
		}
	}
}

// TestSharerSetBoundary walks the population up through the promotion
// threshold and back down through the demotion floor, pinning exactly when
// the representation switches.
func TestSharerSetBoundary(t *testing.T) {
	s := &sharerSet{procs: 64}
	for cpu := 0; cpu < sharerListMax; cpu++ {
		s.add(cpu)
	}
	if s.coarse || s.promotions != 0 {
		t.Fatalf("promoted at %d members (promotions=%d)", s.count(), s.promotions)
	}
	s.add(sharerListMax) // the (max+1)-th member forces the bitmap
	if !s.coarse || s.promotions != 1 {
		t.Fatalf("not promoted at %d members (promotions=%d)", s.count(), s.promotions)
	}
	// Re-adding an existing member never re-promotes.
	s.add(0)
	if s.promotions != 1 || s.count() != sharerListMax+1 {
		t.Fatalf("idempotent add broke: count=%d promotions=%d", s.count(), s.promotions)
	}
	// Walk back down: the demotion fires when n reaches the floor.
	for cpu := sharerListMax; s.count() > sharerListMax/2; cpu-- {
		s.remove(cpu)
	}
	if s.coarse || s.demotions != 1 {
		t.Fatalf("not demoted at %d members (demotions=%d)", s.count(), s.demotions)
	}
	got := s.slice()
	for i, cpu := range got {
		if cpu != i {
			t.Fatalf("post-demotion members %v, want 0..%d", got, sharerListMax/2-1)
		}
	}
}

// TestSharerSetNoAllocSteadyState is the scale regression: once a set has
// seen a full 4096-CPU episode (bitmap allocated and retained), further
// episodes — add all, iterate, clear, repeat — allocate nothing.
func TestSharerSetNoAllocSteadyState(t *testing.T) {
	const procs = 4096
	s := &sharerSet{procs: procs}
	episode := func() {
		for cpu := 0; cpu < procs; cpu++ {
			s.add(cpu)
		}
		sum := 0
		for it := s.iter(); ; {
			_, cpu, ok := it.next()
			if !ok {
				break
			}
			sum += cpu
		}
		if want := procs * (procs - 1) / 2; sum != want {
			t.Fatalf("iteration sum %d, want %d", sum, want)
		}
		for cpu := 0; cpu < procs-sharerListMax/2; cpu++ {
			s.remove(cpu)
		}
		s.clear()
	}
	episode() // warm both representations' storage
	if allocs := testing.AllocsPerRun(3, episode); allocs != 0 {
		t.Fatalf("4096-sharer episode allocates %.1f times per run, want 0", allocs)
	}
}

// TestSharerSetExactListInline: up to sharerListMax ids live inside the
// set itself, so filling a fresh set's exact list allocates nothing.
func TestSharerSetExactListInline(t *testing.T) {
	sets := make([]sharerSet, 101) // AllocsPerRun calls f once more than runs
	next := 0
	allocs := testing.AllocsPerRun(100, func() {
		s := &sets[next]
		next++
		for cpu := sharerListMax - 1; cpu >= 0; cpu-- {
			s.add(3 * cpu)
		}
		s.remove(3)
		if s.coarse || s.count() != sharerListMax-1 || !s.has(0) || s.has(3) {
			t.Fatalf("set %d: coarse %v, %d members %v", next, s.coarse, s.count(), s.slice())
		}
		s.clear()
	})
	if allocs != 0 {
		t.Fatalf("filling a fresh exact list allocates %.1f times, want 0", allocs)
	}
}
