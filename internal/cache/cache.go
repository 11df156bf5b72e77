// Package cache models a processor-private, set-associative, write-back
// cache holding coherence blocks in MSI states. It is a passive structure:
// the simulated CPU's cache controller (internal/proc) drives all state
// transitions; this package only stores lines, evicts with LRU, and patches
// words for the fine-grained update protocol.
package cache

import (
	"fmt"
	"math/bits"
	"sort"

	"amosim/internal/memsys"
	"amosim/internal/metrics"
)

// State is an MSI cache line state.
type State int

// Cache line states. Exclusive clean is folded into Modified: the directory
// grants exclusivity only on write intent, so an exclusive line is always
// treated as dirty.
const (
	Invalid State = iota
	Shared
	Modified
)

func (s State) String() string {
	switch s {
	case Invalid:
		return "I"
	case Shared:
		return "S"
	case Modified:
		return "M"
	}
	return fmt.Sprintf("State(%d)", int(s))
}

// Line is one cache way. Words is the way's own buffer, allocated on its
// first fill and reused by every later one.
type Line struct {
	Addr  uint64 // block-aligned address
	State State
	Words []uint64
	lru   uint64
}

// Victim describes a dirty block displaced by Insert. Words is the cache's
// spare buffer: it holds the evicted contents until the next Insert.
type Victim struct {
	Addr  uint64
	State State
	Words []uint64
}

// Cache is a sets x ways block cache. A set's ways are allocated on its
// first Insert and never move afterwards, so a cache costs what its program
// touches: a CPU spinning on one word holds one set, not the whole array,
// and an untouched cache holds one 4-byte index entry per set.
type Cache struct {
	ways       int
	blockBytes int
	blockShift int    // log2(blockBytes)
	setMask    uint64 // len(index)-1
	// index[i] is 0 while set i has never been inserted into, and k once
	// it is the k-th set touched. Touched sets are numbered from 1 and
	// stored in chunks: chunk c holds sets 2^c to 2^(c+1)-1 and is
	// allocated when the first of them is touched, so no way is ever
	// copied and a cache that touched n sets holds fewer than 2n sets of
	// ways.
	index   []int32
	chunks  [maxChunks][]Line
	touched int32
	tick    uint64
	// spare swaps with a dirty victim's buffer, so the victim's words
	// survive the fill that displaced them.
	spare []uint64

	hits      uint64
	misses    uint64
	evictions uint64
}

// MaxLines bounds a cache's line count, sets x ways: 8 MiB of 128-byte
// blocks, 128 times the default 64 KiB cache. New allocates an index entry
// per set up front, so the bound also bounds an untouched cache.
const MaxLines = 1 << 16

// maxChunks is bits.Len(MaxLines): enough chunks for a cache of MaxLines
// one-way sets.
const maxChunks = 17

// New builds a cache with the given geometry. sets and blockBytes must be
// powers of two, and sets x ways at most MaxLines. No line storage is
// allocated until a set's first Insert.
func New(sets, ways, blockBytes int) *Cache {
	if sets <= 0 || sets&(sets-1) != 0 {
		panic(fmt.Sprintf("cache: sets must be a positive power of two, got %d", sets))
	}
	if ways <= 0 || ways > MaxLines/sets {
		panic(fmt.Sprintf("cache: ways must be in [1, %d] for %d sets, got %d", MaxLines/sets, sets, ways))
	}
	if blockBytes <= 0 || blockBytes&(blockBytes-1) != 0 {
		panic(fmt.Sprintf("cache: block size must be a positive power of two, got %d", blockBytes))
	}
	return &Cache{
		ways:       ways,
		blockBytes: blockBytes,
		blockShift: bits.TrailingZeros(uint(blockBytes)),
		setMask:    uint64(sets - 1),
		index:      make([]int32, sets),
	}
}

// setOf returns the index of the set that block maps to.
func (c *Cache) setOf(block uint64) int {
	return int(block >> c.blockShift & c.setMask)
}

// set returns the ways of the set that block maps to, nil if that set has
// never been inserted into.
func (c *Cache) set(block uint64) []Line {
	k := c.index[c.setOf(block)]
	if k == 0 {
		return nil
	}
	ch := bits.Len32(uint32(k)) - 1
	i := int(k-1<<ch) * c.ways
	return c.chunks[ch][i : i+c.ways]
}

// BlockBytes returns the line size.
func (c *Cache) BlockBytes() int { return c.blockBytes }

// Lookup returns the resident line containing addr, or nil. It does not
// update LRU state; use Touch for accesses. An untouched set has no ways to
// search, so Lookup and every operation built on it report not-found there.
func (c *Cache) Lookup(addr uint64) *Line {
	block := memsys.BlockAddr(addr, c.blockBytes)
	set := c.set(block)
	for i := range set {
		if set[i].State != Invalid && set[i].Addr == block {
			return &set[i]
		}
	}
	return nil
}

// Touch marks the line containing addr most-recently used and counts a hit.
func (c *Cache) Touch(addr uint64) {
	if ln := c.Lookup(addr); ln != nil {
		c.tick++
		ln.lru = c.tick
		c.hits++
	}
}

// Insert installs a block with the given state and contents, returning a
// displaced dirty victim if the chosen way held a Modified block (Shared
// victims are dropped silently; the directory's sharer list stays a
// conservative superset). Inserting over the same block replaces it in
// place. Insert copies words into the way's buffer, so the caller keeps
// its slice.
func (c *Cache) Insert(addr uint64, st State, words []uint64) (Victim, bool) {
	if st == Invalid {
		panic("cache: Insert with Invalid state")
	}
	if len(words) != c.blockBytes/memsys.WordBytes {
		panic(fmt.Sprintf("cache: Insert with %d words, want %d", len(words), c.blockBytes/memsys.WordBytes))
	}
	block := memsys.BlockAddr(addr, c.blockBytes)
	if idx := c.setOf(block); c.index[idx] == 0 {
		c.touched++
		k := c.touched
		if ch := bits.Len32(uint32(k)) - 1; k == 1<<ch {
			// The chunk's first set: size it for the sets left to touch.
			c.chunks[ch] = make([]Line, min(int(k), len(c.index)+1-int(k))*c.ways)
		}
		c.index[idx] = k
	}
	set := c.set(block)
	c.tick++
	c.misses++
	// Replace in place if resident.
	for i := range set {
		if set[i].State != Invalid && set[i].Addr == block {
			set[i].State = st
			copy(set[i].Words, words)
			set[i].lru = c.tick
			return Victim{}, false
		}
	}
	// Prefer an invalid way; otherwise evict the LRU way.
	victimIdx, oldest := -1, ^uint64(0)
	for i := range set {
		if set[i].State == Invalid {
			victimIdx = i
			break
		}
		if set[i].lru < oldest {
			oldest = set[i].lru
			victimIdx = i
		}
	}
	ln := &set[victimIdx]
	var v Victim
	dirty := false
	if ln.State != Invalid {
		c.evictions++
		if ln.State == Modified {
			ln.Words, c.spare = c.spare, ln.Words
			v = Victim{Addr: ln.Addr, State: Modified, Words: c.spare}
			dirty = true
		}
	}
	if ln.Words == nil {
		ln.Words = make([]uint64, len(words))
	}
	copy(ln.Words, words)
	ln.Addr, ln.State, ln.lru = block, st, c.tick
	return v, dirty
}

// Invalidate drops the line containing addr if resident, returning its prior
// state and words (for intervention replies). The words stay valid until
// the next Insert into the line's set. Returns Invalid if absent.
func (c *Cache) Invalidate(addr uint64) (State, []uint64) {
	block := memsys.BlockAddr(addr, c.blockBytes)
	set := c.set(block)
	for i := range set {
		if set[i].State != Invalid && set[i].Addr == block {
			st, w := set[i].State, set[i].Words
			set[i] = Line{Words: w}
			return st, w
		}
	}
	return Invalid, nil
}

// Downgrade moves the line containing addr from Modified to Shared,
// returning its words for the writeback. Returns false if the line is not
// resident in Modified state.
func (c *Cache) Downgrade(addr uint64) ([]uint64, bool) {
	ln := c.Lookup(addr)
	if ln == nil || ln.State != Modified {
		return nil, false
	}
	ln.State = Shared
	return ln.Words, true
}

// Promote raises the line containing addr from Shared to Modified, for
// upgrade grants. Returns false if the line is absent (invalidated while the
// upgrade was in flight).
func (c *Cache) Promote(addr uint64) bool {
	ln := c.Lookup(addr)
	if ln == nil {
		return false
	}
	ln.State = Modified
	return true
}

// PatchWord applies a fine-grained word update to a resident line, returning
// false if the block is not cached (the update is then simply dropped; the
// home memory already holds the new value).
func (c *Cache) PatchWord(addr uint64, val uint64) bool {
	ln := c.Lookup(addr)
	if ln == nil {
		return false
	}
	ln.Words[memsys.WordIndex(addr, c.blockBytes)] = val
	return true
}

// ReadWord returns the word at addr from a resident line.
func (c *Cache) ReadWord(addr uint64) (uint64, bool) {
	ln := c.Lookup(addr)
	if ln == nil {
		return 0, false
	}
	return ln.Words[memsys.WordIndex(addr, c.blockBytes)], true
}

// WriteWord stores val at addr in a resident line; the caller must already
// hold the block in Modified state.
func (c *Cache) WriteWord(addr uint64, val uint64) {
	ln := c.Lookup(addr)
	if ln == nil || ln.State != Modified {
		panic(fmt.Sprintf("cache: WriteWord %#x without Modified line (state %v)", addr, lineState(ln)))
	}
	ln.Words[memsys.WordIndex(addr, c.blockBytes)] = val
}

func lineState(ln *Line) State {
	if ln == nil {
		return Invalid
	}
	return ln.State
}

// ResidentBlocks returns the block addresses of every valid line, in
// ascending order (for coherence checking and introspection).
func (c *Cache) ResidentBlocks() []uint64 {
	var out []uint64
	for _, ch := range c.chunks {
		for i := range ch {
			if ch[i].State != Invalid {
				out = append(out, ch[i].Addr)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Stats returns the cumulative hit/miss/eviction counters (hits counted by
// Touch, misses by Insert).
func (c *Cache) Stats() metrics.CacheStats {
	return metrics.CacheStats{Hits: c.hits, Misses: c.misses, Evictions: c.evictions}
}
