// Package syncprim implements the paper's synchronization algorithms —
// centralized barriers, two-level software combining-tree barriers, ticket
// locks and Anderson array-based queuing locks — each parameterized by the
// atomic-primitive mechanism used to build it:
//
//	LLSC    load-linked/store-conditional retry loops (the baseline)
//	Atomic  processor-side atomic instructions (single-ownership RMW)
//	ActMsg  active messages handled by the home node's CPU 0
//	MAO     conventional memory-side atomics (uncached, T3E/Origin style)
//	AMO     the paper's active memory operations with fine-grained updates
//
// Conventional mechanisms use the paper's "optimized" coding (a separate
// cache-resident spin variable, Figure 3b); AMO uses the naive coding
// (Figure 3c), which is the point: AMOs make the simple code fast.
package syncprim

import (
	"fmt"
	"strings"

	"amosim/internal/core"
	"amosim/internal/machine"
	"amosim/internal/proc"
)

// AMO opcode/flag aliases used by the algorithms in this package.
const (
	amoOpInc        = core.OpInc
	amoOpSwap       = core.OpSwap
	amoOpCSwap      = core.OpCompareSwap
	amoUpdateAlways = core.FlagUpdateAlways
	amoFlagTest     = core.FlagTest
)

// Mechanism selects the atomic-primitive implementation.
type Mechanism int

// The five mechanisms compared in the paper's evaluation.
const (
	LLSC Mechanism = iota
	Atomic
	ActMsg
	MAO
	AMO
	// Combining is the post-paper sixth class: NUMA-clustered hierarchical
	// combining (HSynch-style cohort locks, flat-combining barriers) built
	// from plain processor-side atomics. It is the modern software answer
	// the 2004 paper could not compare against.
	Combining
)

// Mechanisms lists the five mechanisms compared in the paper, in the
// paper's presentation order. Golden tables and checked-in metrics iterate
// this slice, so it intentionally excludes the post-paper Combining class.
var Mechanisms = []Mechanism{LLSC, Atomic, ActMsg, MAO, AMO}

// AllMechanisms lists every mechanism class the simulator implements,
// including the post-paper hierarchical Combining class. The chaos harness
// and fuzz targets iterate this slice so new classes inherit the full
// oracle matrix from day one.
var AllMechanisms = []Mechanism{LLSC, Atomic, ActMsg, MAO, AMO, Combining}

func (m Mechanism) String() string {
	switch m {
	case LLSC:
		return "LL/SC"
	case Atomic:
		return "Atomic"
	case ActMsg:
		return "ActMsg"
	case MAO:
		return "MAO"
	case AMO:
		return "AMO"
	case Combining:
		return "Combining"
	}
	return fmt.Sprintf("Mechanism(%d)", int(m))
}

// ParseMechanism parses a mechanism name, case-insensitively, in any form
// String produces ("LL/SC") or the CLIs accept ("llsc"). It round-trips
// with String: ParseMechanism(m.String()) == m for every mechanism.
func ParseMechanism(s string) (Mechanism, error) {
	switch strings.ToLower(s) {
	case "llsc", "ll/sc":
		return LLSC, nil
	case "atomic":
		return Atomic, nil
	case "actmsg":
		return ActMsg, nil
	case "mao":
		return MAO, nil
	case "amo":
		return AMO, nil
	case "combining":
		return Combining, nil
	}
	return 0, fmt.Errorf("syncprim: unknown mechanism %q (LLSC, Atomic, ActMsg, MAO, AMO, Combining)", s)
}

// Active-message handler ids used by the ActMsg mechanism.
const (
	// HandlerFetchAdd atomically adds arg to *addr at the home CPU and
	// returns the old value.
	HandlerFetchAdd = 1
	// HandlerBarrierInc increments *addr; when the count reaches arg (the
	// barrier target) it releases waiters by storing arg to the flag word
	// one block above addr. Returns the old count.
	HandlerBarrierInc = 2
)

// RegisterHandlers installs the active-message handlers this package needs
// on every CPU of m. It is idempotent.
func RegisterHandlers(m *machine.Machine) {
	if m.CPUs[0].HasHandler(HandlerFetchAdd) {
		return
	}
	m.RegisterHandlerAll(HandlerFetchAdd, func(c *proc.CPU, addr, arg uint64) uint64 {
		v := c.Load(addr)
		c.Store(addr, v+arg)
		return v
	})
	blockBytes := uint64(m.Cfg.BlockBytes)
	m.RegisterHandlerAll(HandlerBarrierInc, func(c *proc.CPU, addr, arg uint64) uint64 {
		v := c.Load(addr)
		c.Store(addr, v+1)
		if v+1 == arg {
			c.Store(addr+blockBytes, arg) // release the spinners
		}
		return v
	})
}

// FetchAdd performs an atomic fetch-and-add on addr using the given
// mechanism, returning the previous value. For AMO the new value is pushed
// to sharers' caches (amo.fetchadd semantics).
func FetchAdd(c *proc.CPU, mech Mechanism, addr, delta uint64) uint64 {
	switch mech {
	case LLSC:
		return c.LLSC(core.OpFetchAdd, addr, delta, 0)
	case Atomic:
		return c.AtomicFetchAdd(addr, delta)
	case ActMsg:
		return c.ActiveMessageCall(HandlerFetchAdd, addr, delta)
	case MAO:
		return c.MAOFetchAdd(addr, delta)
	case AMO:
		return c.AMOFetchAdd(addr, delta)
	case Combining:
		// The combining class builds its hierarchy from plain atomics;
		// a bare fetch-add degenerates to the processor-side primitive.
		return c.AtomicFetchAdd(addr, delta)
	}
	panic(fmt.Sprintf("syncprim: unknown mechanism %d", int(mech)))
}
