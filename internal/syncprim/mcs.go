package syncprim

import (
	"fmt"

	"amosim/internal/core"
	"amosim/internal/machine"
	"amosim/internal/proc"
)

// MCSLock is the queue lock of Mellor-Crummey & Scott [17 in the paper]: a
// distributed linked list of waiters, each spinning on its own locally
// cached flag. Acquire swaps itself onto the tail; release hands the lock
// to its recorded successor (or CASes the tail back to empty). The paper
// groups it with the "more complex algorithms" that AMOs make unnecessary —
// it is implemented here as the strongest conventional baseline and as an
// extension experiment.
//
// Queue nodes live in simulated memory, one per CPU, each field in its own
// cache block: locked flag and next pointer (a word holding the successor's
// node index + 1, 0 meaning none).
type MCSLock struct {
	mech Mechanism
	tail uint64 // word holding (owner CPU id + 1), 0 = free

	locked []uint64 // per-CPU flag word
	next   []uint64 // per-CPU successor word
}

// Swap/CAS handler ids for the ActMsg mechanism.
const (
	handlerSwap = 3
	handlerCAS  = 4
)

// registerMCSHandlers installs swap/CAS active-message handlers (idempotent).
func registerMCSHandlers(m *machine.Machine) {
	if m.CPUs[0].HasHandler(handlerSwap) {
		return
	}
	m.RegisterHandlerAll(handlerSwap, func(c *proc.CPU, addr, arg uint64) uint64 {
		v := c.Load(addr)
		c.Store(addr, arg)
		return v
	})
	// CAS packs expect/new into arg as (expect<<32 | new); adequate for
	// node indices, which are small.
	m.RegisterHandlerAll(handlerCAS, func(c *proc.CPU, addr, arg uint64) uint64 {
		expect, val := arg>>32, arg&0xFFFFFFFF
		v := c.Load(addr)
		if v == expect {
			c.Store(addr, val)
		}
		return v
	})
}

// NewMCSLock allocates MCS state for up to procs waiters, with the tail on
// the home node and each CPU's queue node on its own node.
func NewMCSLock(m *machine.Machine, mech Mechanism, procs, home int) *MCSLock {
	if procs <= 0 {
		panic(fmt.Sprintf("syncprim: MCS lock needs positive procs, got %d", procs))
	}
	if mech == ActMsg {
		RegisterHandlers(m)
		registerMCSHandlers(m)
	}
	l := &MCSLock{mech: mech, tail: m.AllocWord(home)}
	for cpu := 0; cpu < procs; cpu++ {
		node := cpu / m.Cfg.ProcsPerNode
		l.locked = append(l.locked, m.AllocWord(node))
		l.next = append(l.next, m.AllocWord(node))
	}
	return l
}

// mechSwap performs an atomic exchange with the given mechanism. It is
// shared by the queue locks (MCS and the hierarchical combining lock).
func mechSwap(c *proc.CPU, mech Mechanism, addr, val uint64) uint64 {
	switch mech {
	case LLSC:
		return c.LLSC(core.OpSwap, addr, val, 0)
	case Atomic, Combining:
		return c.AtomicSwap(addr, val)
	case ActMsg:
		return c.ActiveMessageCall(handlerSwap, addr, val)
	case MAO:
		return c.MAOSwap(addr, val)
	case AMO:
		return c.AMO(amoOpSwap, addr, val, 0, 0)
	}
	panic("syncprim: unknown mechanism")
}

// mechCAS performs an atomic compare-and-swap with the given mechanism,
// reporting success.
func mechCAS(c *proc.CPU, mech Mechanism, addr, expect, val uint64) bool {
	switch mech {
	case LLSC:
		return c.LLSC(core.OpCompareSwap, addr, val, expect) == expect
	case Atomic, Combining:
		return c.AtomicCompareSwap(addr, expect, val) == expect
	case ActMsg:
		return c.ActiveMessageCall(handlerCAS, addr, expect<<32|val&0xFFFFFFFF) == expect
	case MAO:
		return c.MAOCompareSwap(addr, expect, val) == expect
	case AMO:
		return c.AMO(amoOpCSwap, addr, val, expect, amoFlagTest) == expect
	}
	panic("syncprim: unknown mechanism")
}

// swap performs an atomic exchange with the lock's mechanism.
func (l *MCSLock) swap(c *proc.CPU, addr, val uint64) uint64 {
	return mechSwap(c, l.mech, addr, val)
}

// cas performs an atomic compare-and-swap, reporting success.
func (l *MCSLock) cas(c *proc.CPU, addr, expect, val uint64) bool {
	return mechCAS(c, l.mech, addr, expect, val)
}

// Acquire takes the lock.
func (l *MCSLock) Acquire(c *proc.CPU) {
	me := uint64(c.ID())
	c.Store(l.next[me], 0)
	c.Store(l.locked[me], 1)
	pred := l.swap(c, l.tail, me+1)
	if pred == 0 {
		return // uncontended
	}
	// Link behind the predecessor and spin on our own flag.
	c.Store(l.next[pred-1], me+1)
	if l.mech == AMO {
		c.SpinUntil(l.locked[me], proc.Equal(0))
		return
	}
	c.SpinUntil(l.locked[me], proc.Equal(0))
}

// Release hands the lock to the successor, if any.
func (l *MCSLock) Release(c *proc.CPU) {
	me := uint64(c.ID())
	succ := c.Load(l.next[me])
	if succ == 0 {
		// No known successor: try to reset the tail.
		if l.cas(c, l.tail, me+1, 0) {
			return
		}
		// Someone is in Acquire between swap and link; wait for the link.
		succ = uint64(c.SpinUntil(l.next[me], proc.NotEqual(0)))
	}
	// Wake the successor by clearing its flag.
	target := l.locked[succ-1]
	if l.mech == AMO {
		c.AMO(amoOpSwap, target, 0, 0, amoUpdateAlways)
		return
	}
	c.Store(target, 0)
}
