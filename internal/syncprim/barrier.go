package syncprim

import (
	"fmt"

	"amosim/internal/core"
	"amosim/internal/machine"
	"amosim/internal/proc"
)

// Barrier is a centralized (non-tree) barrier over a fixed set of
// participants, reusable across episodes via a monotonic count.
//
// Conventional mechanisms use the optimized coding of Figure 3(b): arrivals
// increment the count with the mechanism's atomic primitive and the last
// arriver releases everyone through a separate spin variable in its own
// cache block. The AMO version uses the naive coding of Figure 3(c):
// amo.inc carries a test value and every participant spins directly on the
// barrier variable, which the AMU patches in place when the count arrives.
type Barrier struct {
	mech  Mechanism
	procs int

	count uint64 // barrier variable (home: chosen node)
	flag  uint64 // spin variable, one block above count

	// amoUpdateAlways makes every AMO arrival push a word update (ablation
	// A2) instead of only the final, test-matching one.
	amoUpdateAlways bool
	// naive makes conventional mechanisms use the paper's Figure 3(a)
	// coding: spin directly on the barrier variable instead of a separate
	// spin variable, so every arrival's increment contends with the
	// spinners' reloads.
	naive bool

	episodes []uint64 // per-CPU completed-episode count, indexed by CPU ID
}

// SetAMOUpdateAlways switches the AMO coding to update-on-every-increment,
// the configuration the paper argues against (§3.2): it exists to measure
// the cost of losing the delayed-update optimization.
func (b *Barrier) SetAMOUpdateAlways(v bool) { b.amoUpdateAlways = v }

// SetNaiveConventional switches conventional mechanisms to the naive
// Figure 3(a) coding (spin on the barrier variable itself), to measure the
// value of the separate-spin-variable optimization. AMO ignores it: the
// naive coding is already the AMO coding.
func (b *Barrier) SetNaiveConventional(v bool) { b.naive = v }

// NewBarrier allocates barrier state on the given home node for procs
// participants.
func NewBarrier(m *machine.Machine, mech Mechanism, procs, home int) *Barrier {
	if procs <= 0 {
		panic(fmt.Sprintf("syncprim: barrier needs positive procs, got %d", procs))
	}
	bb := m.Cfg.BlockBytes
	base := m.Mem.Alloc(home, 2*bb, bb)
	if mech == ActMsg {
		RegisterHandlers(m)
	}
	return &Barrier{
		mech:     mech,
		procs:    procs,
		count:    base,
		flag:     base + uint64(bb),
		episodes: make([]uint64, m.Cfg.Processors),
	}
}

// Count returns the address of the barrier variable (for tests).
func (b *Barrier) Count() uint64 { return b.count }

// Wait blocks the calling CPU until all participants have arrived at this
// episode of the barrier.
func (b *Barrier) Wait(c *proc.CPU) {
	b.episodes[c.ID()]++
	target := b.episodes[c.ID()] * uint64(b.procs)

	switch b.mech {
	case AMO:
		// Naive coding: one amo.inc with the test value, then spin on the
		// barrier variable itself; the fine-grained update patches it.
		if b.amoUpdateAlways {
			c.AMO(amoOpInc, b.count, 0, target, core.FlagTest|amoUpdateAlways)
		} else {
			c.AMOInc(b.count, target)
		}
		c.SpinUntil(b.count, proc.AtLeast(target))
		return
	case ActMsg:
		// The handler releases the flag at the home, saving one network
		// round trip for the last arriver.
		c.ActiveMessageCall(HandlerBarrierInc, b.count, target)
		c.SpinUntil(b.flag, proc.AtLeast(target))
		return
	default:
		old := FetchAdd(c, b.mech, b.count, 1)
		if b.naive {
			// Figure 3(a): spin on the barrier variable itself. MAO spins
			// must bypass the cache (the variable is not coherent).
			if old == target-1 {
				return
			}
			if b.mech == MAO {
				c.SpinUntilUncached(b.count, proc.AtLeast(target), 64)
				return
			}
			c.SpinUntil(b.count, proc.AtLeast(target))
			return
		}
		if old == target-1 {
			c.Store(b.flag, target) // release
			return
		}
		c.SpinUntil(b.flag, proc.AtLeast(target))
	}
}

// TreeBarrier is a two-level software combining tree in the style of Yew,
// Tzeng and Lawrie: participants are split into groups of size <= branching;
// the last arriver in each group combines into a root counter; the last
// root arriver triggers a reverse wake-up wave (root release, then group
// releases). Group counters are homed on the node of each group's first
// member, distributing the hot spots.
type TreeBarrier struct {
	mech      Mechanism
	procs     int
	branching int

	groups []treeGroup
	root   uint64 // root counter
	rootFl uint64 // root release flag (conventional mechanisms)

	episodes []uint64
}

type treeGroup struct {
	count uint64
	flag  uint64
	size  int
}

// NewTreeBarrier builds a two-level tree for procs participants with the
// given branching factor (group size).
func NewTreeBarrier(m *machine.Machine, mech Mechanism, procs, branching int) *TreeBarrier {
	if branching < 2 {
		panic(fmt.Sprintf("syncprim: tree branching must be >= 2, got %d", branching))
	}
	if procs < 2 {
		panic(fmt.Sprintf("syncprim: tree barrier needs >= 2 procs, got %d", procs))
	}
	if mech == ActMsg {
		RegisterHandlers(m)
	}
	bb := m.Cfg.BlockBytes
	tb := &TreeBarrier{
		mech:      mech,
		procs:     procs,
		branching: branching,
		episodes:  make([]uint64, m.Cfg.Processors),
	}
	ngroups := (procs + branching - 1) / branching
	for g := 0; g < ngroups; g++ {
		first := g * branching
		size := branching
		if first+size > procs {
			size = procs - first
		}
		home := first / m.Cfg.ProcsPerNode
		base := m.Mem.Alloc(home, 2*bb, bb)
		tb.groups = append(tb.groups, treeGroup{count: base, flag: base + uint64(bb), size: size})
	}
	rootBase := m.Mem.Alloc(0, 2*bb, bb)
	tb.root = rootBase
	tb.rootFl = rootBase + uint64(bb)
	return tb
}

// Groups returns the number of first-level groups.
func (tb *TreeBarrier) Groups() int { return len(tb.groups) }

// Wait blocks the calling CPU until all participants arrive.
func (tb *TreeBarrier) Wait(c *proc.CPU) {
	tb.episodes[c.ID()]++
	e := tb.episodes[c.ID()]
	g := c.ID() / tb.branching
	grp := &tb.groups[g]
	groupTarget := e * uint64(grp.size)
	rootTarget := e * uint64(len(tb.groups))

	old := tb.arrive(c, grp.count, groupTarget)
	if old != groupTarget-1 {
		// Not the group's last arriver: wait for the group release.
		tb.spinRelease(c, grp.flag, e)
		return
	}
	// Group leader: combine into the root.
	old = tb.arrive(c, tb.root, rootTarget)
	if old == rootTarget-1 {
		// Last overall: release the root level. For AMO the amo.inc above
		// already fired the root update at rootTarget; leaders spin on the
		// root counter itself and need no separate flag.
		if tb.mech != AMO {
			c.Store(tb.rootFl, e)
		}
	} else {
		tb.spinRootRelease(c, e, rootTarget)
	}
	// Release this group's members.
	tb.releaseGroup(c, grp.flag, e)
}

// arrive increments a combining counter with the barrier's mechanism,
// returning the old value. AMO arrivals on the root carry the test value so
// the release is a fine-grained update on the counter itself.
func (tb *TreeBarrier) arrive(c *proc.CPU, addr, target uint64) uint64 {
	switch tb.mech {
	case AMO:
		if addr == tb.root {
			return c.AMOInc(addr, target)
		}
		// Group counters need no update push (members spin on the flag).
		return c.AMO(amoOpInc, addr, 0, 0, 0)
	case ActMsg:
		return c.ActiveMessageCall(HandlerFetchAdd, addr, 1)
	default:
		return FetchAdd(c, tb.mech, addr, 1)
	}
}

// spinRootRelease waits for the root release.
func (tb *TreeBarrier) spinRootRelease(c *proc.CPU, e, rootTarget uint64) {
	switch tb.mech {
	case AMO:
		c.SpinUntil(tb.root, proc.AtLeast(rootTarget))
	default:
		c.SpinUntil(tb.rootFl, proc.AtLeast(e))
	}
}

// releaseGroup wakes this group's members.
func (tb *TreeBarrier) releaseGroup(c *proc.CPU, flagAddr, e uint64) {
	switch tb.mech {
	case AMO:
		// amo.swap with update-always patches each member's cached flag.
		c.AMO(amoOpSwap, flagAddr, e, 0, amoUpdateAlways)
	default:
		c.Store(flagAddr, e)
	}
}

// spinRelease waits for the group release.
func (tb *TreeBarrier) spinRelease(c *proc.CPU, flagAddr, e uint64) {
	c.SpinUntil(flagAddr, proc.AtLeast(e))
}
