// Package memsys models the physical memory of the simulated machine: a
// global physical address space statically partitioned across nodes (the
// home of an address is encoded in its high bits, as in Origin-style
// CC-NUMA machines), a per-node bump allocator, and a paged backing word
// store with a fixed DRAM access latency.
package memsys

import (
	"fmt"

	"amosim/internal/metrics"
)

// NodeShift positions the home-node id in bits [NodeShift, 64). Each node
// therefore owns a 2^NodeShift-byte slice of the physical address space.
const NodeShift = 32

// WordBytes is the machine word size. All synchronization variables are one
// word.
const WordBytes = 8

// HomeNode returns the node owning addr.
func HomeNode(addr uint64) int { return int(addr >> NodeShift) }

// NodeBase returns the first physical address owned by node n.
func NodeBase(n int) uint64 { return uint64(n) << NodeShift }

// BlockAddr returns the base address of the coherence block containing addr.
func BlockAddr(addr uint64, blockBytes int) uint64 {
	return addr &^ (uint64(blockBytes) - 1)
}

// MaxBlockBytes is the largest supported coherence block: 64 words, so a
// block fits in one backing page and its words in one uint64 bitmask.
const MaxBlockBytes = 512

// ValidBlockBytes reports whether n is a supported coherence block size: a
// power of two from one word to MaxBlockBytes.
func ValidBlockBytes(n int) bool {
	return n >= WordBytes && n <= MaxBlockBytes && n&(n-1) == 0
}

// A backing page is 64 words (512 bytes), so an aligned block of at most
// MaxBlockBytes never straddles two pages.
const (
	pageBytes = MaxBlockBytes
	pageWords = pageBytes / WordBytes
)

// page is one fixed-size slice of a node's memory.
type page [pageWords]uint64

// WordIndex returns the word offset of addr within its block.
func WordIndex(addr uint64, blockBytes int) int {
	return int(addr&(uint64(blockBytes)-1)) / WordBytes
}

// Memory is the machine-wide backing store plus per-node allocation state.
// Reads of never-written addresses return zero, like zeroed DRAM.
//
// Each node's words live in fixed pages indexed by offset within the node,
// allocated on first write. The per-node bump allocator keeps offsets
// dense, so the page index stays short and a word access is two slice
// indexings, with no hashing.
//
// The store and access counters are banked per home node: an address is
// only ever read or written by its home node's components (directory, AMU,
// sync engine, memory agent), so on the parallel kernel each bank is
// touched by exactly one shard and the store needs no locking.
type Memory struct {
	banks      []bank
	nextFree   []uint64 // per-node bump pointer (offset within node)
	blockBytes int
	dramCycles uint64
}

// bank is one node's slice of physical memory.
type bank struct {
	pages  []*page // indexed by offset within the node / pageBytes; nil = never written
	reads  uint64
	writes uint64
}

// New creates a Memory for nodes nodes with the given coherence block size
// and DRAM latency (in CPU cycles).
func New(nodes, blockBytes int, dramCycles uint64) *Memory {
	if nodes <= 0 {
		panic(fmt.Sprintf("memsys: nodes must be positive, got %d", nodes))
	}
	if !ValidBlockBytes(blockBytes) {
		panic(fmt.Sprintf("memsys: bad block size %d (want a power of two in [%d, %d])", blockBytes, WordBytes, MaxBlockBytes))
	}
	return &Memory{
		banks:      make([]bank, nodes),
		nextFree:   make([]uint64, nodes),
		blockBytes: blockBytes,
		dramCycles: dramCycles,
	}
}

// DRAMCycles returns the per-access DRAM latency.
func (m *Memory) DRAMCycles() uint64 { return m.dramCycles }

// Alloc reserves size bytes on node home's memory, aligned to align bytes
// (align must be a power of two >= WordBytes), and returns the base address.
func (m *Memory) Alloc(home int, size, align int) uint64 {
	if home < 0 || home >= len(m.nextFree) {
		panic(fmt.Sprintf("memsys: Alloc on node %d of %d", home, len(m.nextFree)))
	}
	if align < WordBytes || align&(align-1) != 0 {
		panic(fmt.Sprintf("memsys: bad alignment %d", align))
	}
	if size <= 0 {
		panic(fmt.Sprintf("memsys: bad size %d", size))
	}
	off := m.nextFree[home]
	a := uint64(align)
	off = (off + a - 1) &^ (a - 1)
	m.nextFree[home] = off + uint64(size)
	return NodeBase(home) + off
}

// AllocWord reserves one block-aligned word on node home, so that distinct
// AllocWord results never share a coherence block (the placement discipline
// the paper's "optimized" codings require).
func (m *Memory) AllocWord(home int) uint64 {
	return m.Alloc(home, WordBytes, m.blockBytes)
}

// bank returns the home bank of addr.
func (m *Memory) bank(addr uint64) *bank {
	n := HomeNode(addr)
	if n < 0 || n >= len(m.banks) {
		panic(fmt.Sprintf("memsys: address %#x has no home (node %d of %d)", addr, n, len(m.banks)))
	}
	return &m.banks[n]
}

// words returns the backing words from addr to the end of its page, or nil
// if the page was never written. It never allocates.
func (b *bank) words(addr uint64) []uint64 {
	off := addr & (1<<NodeShift - 1)
	if p := off / pageBytes; p < uint64(len(b.pages)) && b.pages[p] != nil {
		return b.pages[p][off%pageBytes/WordBytes:]
	}
	return nil
}

// wordsForWrite is words for a store: it allocates the page (and extends
// the page index) on first write.
func (b *bank) wordsForWrite(addr uint64) []uint64 {
	off := addr & (1<<NodeShift - 1)
	p := off / pageBytes
	if p >= uint64(len(b.pages)) {
		b.pages = append(b.pages, make([]*page, p+1-uint64(len(b.pages)))...)
	}
	if b.pages[p] == nil {
		b.pages[p] = new(page)
	}
	return b.pages[p][off%pageBytes/WordBytes:]
}

// ReadWord returns the word at the word-aligned address addr.
func (m *Memory) ReadWord(addr uint64) uint64 {
	m.checkAligned(addr)
	b := m.bank(addr)
	b.reads++
	if w := b.words(addr); w != nil {
		return w[0]
	}
	return 0
}

// WriteWord stores val at the word-aligned address addr.
func (m *Memory) WriteWord(addr, val uint64) {
	m.checkAligned(addr)
	b := m.bank(addr)
	b.writes++
	b.wordsForWrite(addr)[0] = val
}

// ReadBlock returns the words of the block containing addr.
func (m *Memory) ReadBlock(addr uint64) []uint64 {
	out := make([]uint64, m.blockBytes/WordBytes)
	m.ReadBlockInto(addr, out)
	return out
}

// ReadBlockInto reads the words of the block containing addr into out,
// which must hold exactly one block. It is the allocation-free form of
// ReadBlock for callers that bring their own (typically pooled) buffer.
func (m *Memory) ReadBlockInto(addr uint64, out []uint64) {
	base := BlockAddr(addr, m.blockBytes)
	if n := m.blockBytes / WordBytes; len(out) != n {
		panic(fmt.Sprintf("memsys: ReadBlockInto with %d words, want %d", len(out), n))
	}
	b := m.bank(base)
	b.reads++
	if w := b.words(base); w != nil {
		copy(out, w)
	} else {
		clear(out)
	}
}

// WriteBlock stores words (len = block words) at the block containing addr.
func (m *Memory) WriteBlock(addr uint64, words []uint64) {
	base := BlockAddr(addr, m.blockBytes)
	if len(words) != m.blockBytes/WordBytes {
		panic(fmt.Sprintf("memsys: WriteBlock with %d words, want %d", len(words), m.blockBytes/WordBytes))
	}
	b := m.bank(base)
	b.writes++
	copy(b.wordsForWrite(base), words)
}

// Stats returns the cumulative DRAM read/write transaction counters,
// summed over banks in node order. Call only while the machine is
// quiescent (snapshots are taken between runs).
func (m *Memory) Stats() metrics.MemoryStats {
	var out metrics.MemoryStats
	for i := range m.banks {
		out.Reads += m.banks[i].reads
		out.Writes += m.banks[i].writes
	}
	return out
}

func (m *Memory) checkAligned(addr uint64) {
	if addr%WordBytes != 0 {
		panic(fmt.Sprintf("memsys: unaligned word access %#x", addr))
	}
}
