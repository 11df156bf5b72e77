package directory

import "math/bits"

// sharerListMax is the exact-list capacity of a sharerSet: the set holds up
// to this many CPU ids as a sorted list inside the set itself (cheap at
// small P, and what the golden tables at P <= 32 exercise) and promotes to
// a coarse bitmap when an insertion would exceed it — the SGI Origin-style
// limited-pointer / coarse-vector split. Removals demote back to the exact
// list once the population falls to half the threshold, so a set
// oscillating at the boundary does not thrash between representations.
const sharerListMax = 8

// sharerSet is the directory's sharer vector: membership, ascending-order
// iteration, and O(words) transitions in either representation. The exact
// list is a fixed array, so a set allocates nothing until it first
// promotes; the bitmap is retained across clears and representation
// switches, so steady-state transitions — including 4096-sharer barrier
// episodes — never allocate.
type sharerSet struct {
	procs  int                  // machine CPU count: sizes the bitmap (0 = grow on demand)
	exact  [sharerListMax]int32 // sorted CPU ids, exact[:n], the representation when !coarse
	bits   []uint64             // bitmap, the representation when coarse
	n      int                  // population count, in either representation
	coarse bool

	promotions, demotions uint64 // representation-switch counters (tests)
}

// count returns the number of sharers.
func (s *sharerSet) count() int { return s.n }

// find returns the position of the first exact-list id not below cpu.
func (s *sharerSet) find(cpu int) int {
	i := 0
	for i < s.n && int(s.exact[i]) < cpu {
		i++
	}
	return i
}

// has reports whether cpu is in the set.
func (s *sharerSet) has(cpu int) bool {
	if s.coarse {
		w := cpu >> 6
		return w < len(s.bits) && s.bits[w]&(1<<uint(cpu&63)) != 0
	}
	i := s.find(cpu)
	return i < s.n && int(s.exact[i]) == cpu
}

// add inserts cpu (no-op if present), promoting to the bitmap when the
// exact list is full.
func (s *sharerSet) add(cpu int) {
	if s.coarse {
		w := cpu >> 6
		s.growBits(w + 1)
		m := uint64(1) << uint(cpu&63)
		if s.bits[w]&m == 0 {
			s.bits[w] |= m
			s.n++
		}
		return
	}
	i := s.find(cpu)
	if i < s.n && int(s.exact[i]) == cpu {
		return
	}
	if s.n >= sharerListMax {
		s.promote()
		s.add(cpu)
		return
	}
	copy(s.exact[i+1:s.n+1], s.exact[i:s.n])
	s.exact[i] = int32(cpu)
	s.n++
}

// remove deletes cpu (no-op if absent), demoting to the exact list when
// the population falls to the hysteresis floor.
func (s *sharerSet) remove(cpu int) {
	if s.coarse {
		w := cpu >> 6
		m := uint64(1) << uint(cpu&63)
		if w < len(s.bits) && s.bits[w]&m != 0 {
			s.bits[w] &^= m
			s.n--
			if s.n <= sharerListMax/2 {
				s.demote()
			}
		}
		return
	}
	i := s.find(cpu)
	if i < s.n && int(s.exact[i]) == cpu {
		copy(s.exact[i:s.n-1], s.exact[i+1:s.n])
		s.n--
	}
}

// clear empties the set, keeping the bitmap's storage.
func (s *sharerSet) clear() {
	if s.coarse {
		for i := range s.bits {
			s.bits[i] = 0
		}
		s.coarse = false
	}
	s.n = 0
}

// growBits ensures the bitmap spans at least words words.
func (s *sharerSet) growBits(words int) {
	for len(s.bits) < words {
		s.bits = append(s.bits, 0)
	}
}

// promote switches to the bitmap representation.
func (s *sharerSet) promote() {
	words := (s.procs + 63) / 64
	if words < 1 {
		words = 1
	}
	s.growBits(words)
	for i := range s.bits {
		s.bits[i] = 0
	}
	for _, cpu := range s.exact[:s.n] {
		s.growBits(int(cpu>>6) + 1)
		s.bits[cpu>>6] |= 1 << uint(cpu&63)
	}
	s.coarse = true
	s.promotions++
}

// demote switches back to the exact list representation. The population
// is at the hysteresis floor, so it fits the list.
func (s *sharerSet) demote() {
	k := 0
	for w, word := range s.bits {
		for word != 0 {
			b := bits.TrailingZeros64(word)
			s.exact[k] = int32(w<<6 + b)
			k++
			word &^= 1 << uint(b)
		}
		s.bits[w] = 0
	}
	s.coarse = false
	s.demotions++
}

// slice returns the members in ascending order as a fresh slice (snapshots
// and introspection; not a hot path).
func (s *sharerSet) slice() []int {
	out := make([]int, 0, s.count())
	for it := s.iter(); ; {
		_, cpu, ok := it.next()
		if !ok {
			return out
		}
		out = append(out, cpu)
	}
}

// sharerIter walks a sharerSet in ascending CPU order without allocating:
// the fan-out hot paths (invalidation bursts, fine-put word updates) hold
// it on the stack. i is the burst index used for injection staggering.
type sharerIter struct {
	set  *sharerSet
	idx  int    // burst index of the next element
	pos  int    // exact: next slice index; coarse: current word index
	word uint64 // coarse: unvisited bits of the current word
}

// iter returns an iterator positioned before the first sharer.
func (s *sharerSet) iter() sharerIter {
	it := sharerIter{set: s}
	if s.coarse && len(s.bits) > 0 {
		it.word = s.bits[0]
	}
	return it
}

// next returns the burst index and CPU id of the next sharer.
func (it *sharerIter) next() (i, cpu int, ok bool) {
	s := it.set
	if !s.coarse {
		if it.pos >= s.n {
			return 0, 0, false
		}
		i, cpu = it.idx, int(s.exact[it.pos])
		it.pos++
		it.idx++
		return i, cpu, true
	}
	for {
		if it.word != 0 {
			b := bits.TrailingZeros64(it.word)
			it.word &^= 1 << uint(b)
			i, cpu = it.idx, it.pos<<6+b
			it.idx++
			return i, cpu, true
		}
		it.pos++
		if it.pos >= len(s.bits) {
			return 0, 0, false
		}
		it.word = s.bits[it.pos]
	}
}
