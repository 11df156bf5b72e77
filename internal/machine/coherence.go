package machine

import (
	"fmt"
	"sort"

	"amosim/internal/cache"
	"amosim/internal/memsys"
)

// CheckCoherence validates the single-writer/multiple-reader invariants of
// the protocol at quiescence (after Run has returned). It returns the first
// violation found, or nil. The invariants:
//
//  1. At most one Modified copy of a block exists machine-wide, and when
//     one exists no other CPU holds the block in any state.
//  2. The home directory's record matches: a Modified copy implies state E
//     with the right owner; every Shared copy's CPU appears in the
//     directory's sharer list (the list may be a superset — silent
//     evictions leave stale entries — but never miss a real sharer).
//  3. All Shared copies of a block hold identical contents, equal to home
//     memory — except for words currently held by the home AMU, whose
//     value is authoritative in the AMU until the next put/recall (the
//     paper's release-consistency window, §3.2).
//  4. No directory entry is still busy (a busy entry at quiescence means a
//     transaction leaked).
//
// On backends without a directory (dsm) any cached copy is itself a
// violation — CPUs run uncached — and only the quiescence check of the
// memory-side units applies. That check (checkQuiescence) runs last on
// every backend.
func (m *Machine) CheckCoherence() error {
	copies := make(map[uint64][]copyInfo)
	for _, cpu := range m.CPUs {
		for _, block := range cpu.Cache().ResidentBlocks() {
			ln := cpu.Cache().Lookup(block)
			copies[block] = append(copies[block], copyInfo{cpu: cpu.ID(), state: ln.State, words: ln.Words})
		}
	}
	blocks := make([]uint64, 0, len(copies))
	for block := range copies { //lint:order-independent (keys sorted below)
		blocks = append(blocks, block)
	}
	sort.Slice(blocks, func(i, j int) bool { return blocks[i] < blocks[j] })
	if len(m.Dirs) == 0 {
		if len(blocks) > 0 {
			return fmt.Errorf("block %#x: cached copy on a coherence-free backend", blocks[0])
		}
		return m.checkQuiescence()
	}
	for _, block := range blocks {
		cs := copies[block]
		home := memsys.HomeNode(block)
		dir := m.Dirs[home]
		snap := dir.SnapshotOf(block)
		if snap.Busy {
			return fmt.Errorf("block %#x: directory still busy at quiescence", block)
		}
		var modified []copyInfo
		var shared []copyInfo
		for _, c := range cs {
			switch c.state {
			case cache.Modified:
				modified = append(modified, c)
			case cache.Shared:
				shared = append(shared, c)
			default:
				return fmt.Errorf("block %#x: cpu %d resident in state %v", block, c.cpu, c.state)
			}
		}
		if len(modified) > 1 {
			return fmt.Errorf("block %#x: %d Modified copies (cpus %v)", block, len(modified), cpusOf(modified))
		}
		if len(modified) == 1 {
			if len(shared) > 0 {
				return fmt.Errorf("block %#x: Modified on cpu %d alongside Shared copies on %v",
					block, modified[0].cpu, cpusOf(shared))
			}
			if snap.State != "E" || snap.Owner != modified[0].cpu {
				return fmt.Errorf("block %#x: cpu %d holds M but directory says state=%s owner=%d",
					block, modified[0].cpu, snap.State, snap.Owner)
			}
			continue
		}
		if len(shared) > 0 && snap.State == "E" {
			return fmt.Errorf("block %#x: Shared copies on %v but directory says Exclusive(owner %d)",
				block, cpusOf(shared), snap.Owner)
		}
		registered := make(map[int]bool, len(snap.Sharers))
		for _, cpu := range snap.Sharers {
			registered[cpu] = true
		}
		amuWord := make(map[int]bool)
		for _, w := range snap.AMUWords {
			amuWord[memsys.WordIndex(w, m.Cfg.BlockBytes)] = true
		}
		memWords := m.Mem.ReadBlock(block)
		for _, c := range shared {
			if !registered[c.cpu] {
				return fmt.Errorf("block %#x: cpu %d holds S but is not in directory sharers %v",
					block, c.cpu, snap.Sharers)
			}
			for w := range c.words {
				if amuWord[w] {
					continue // AMU value is authoritative; cached copy may lag
				}
				if c.words[w] != memWords[w] {
					return fmt.Errorf("block %#x word %d: cpu %d caches %d but memory has %d",
						block, w, c.cpu, c.words[w], memWords[w])
				}
			}
		}
	}
	return m.checkQuiescence()
}

// ReadWordCoherent returns the authoritative value of the word at addr at
// quiescence, without scheduling events or perturbing any cache: the
// backend-held copy if present (the home AMU's or sync engine's table
// entry, authoritative for both AMO words inside the release-consistency
// window and MAO words, which live there until evicted), else a Modified
// processor-cache copy, else home memory. Call only between runs — mid-run
// the answer can be mid-transaction.
func (m *Machine) ReadWordCoherent(addr uint64) uint64 {
	if v, ok := m.peekWord(addr); ok {
		return v
	}
	for _, cpu := range m.CPUs {
		if v, ok := cpu.Cache().ReadWord(addr); ok {
			if ln := cpu.Cache().Lookup(addr); ln != nil && ln.State == cache.Modified {
				return v
			}
		}
	}
	return m.Mem.ReadWord(addr)
}

// copyInfo is one cached copy of a block, for invariant checking.
type copyInfo struct {
	cpu   int
	state cache.State
	words []uint64
}

func cpusOf(cs []copyInfo) []int {
	out := make([]int, len(cs))
	for i, c := range cs {
		out[i] = c.cpu
	}
	sort.Ints(out)
	return out
}
