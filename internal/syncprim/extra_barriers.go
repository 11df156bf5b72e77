package syncprim

import (
	"fmt"

	"amosim/internal/machine"
	"amosim/internal/proc"
)

// SenseBarrier is the classic sense-reversing centralized barrier: a count
// plus a sense word whose polarity flips each episode. It differs from
// Barrier (monotonic count + release target) in that the count is reset by
// the last arriver, which is how most production barriers are coded; the
// mechanism supplies the atomic decrement.
type SenseBarrier struct {
	mech  Mechanism
	procs int
	count uint64
	sense uint64

	local []uint64 // per-CPU local sense, indexed by CPU ID
}

// NewSenseBarrier allocates sense-reversing barrier state on home.
func NewSenseBarrier(m *machine.Machine, mech Mechanism, procs, home int) *SenseBarrier {
	if procs <= 0 {
		panic(fmt.Sprintf("syncprim: sense barrier needs positive procs, got %d", procs))
	}
	if mech == ActMsg {
		RegisterHandlers(m)
	}
	b := &SenseBarrier{
		mech:  mech,
		procs: procs,
		count: m.AllocWord(home),
		sense: m.AllocWord(home),
		local: make([]uint64, m.Cfg.Processors),
	}
	m.Mem.WriteWord(b.count, uint64(procs))
	return b
}

// Wait blocks until all participants arrive.
func (b *SenseBarrier) Wait(c *proc.CPU) {
	mySense := 1 - b.local[c.ID()]
	b.local[c.ID()] = mySense

	// Atomic decrement (fetch-add of -1) with the barrier's mechanism.
	old := FetchAdd(c, b.mech, b.count, ^uint64(0))
	if old == 1 {
		// Last arriver: reset the count, flip the sense. MAO variables are
		// not in the coherent domain (paper §2), so their reset must use an
		// uncached store; a cached store would leave the AMU's non-coherent
		// copy stale.
		switch b.mech {
		case MAO:
			c.UncachedStore(b.count, uint64(b.procs))
		default:
			c.Store(b.count, uint64(b.procs))
		}
		switch b.mech {
		case AMO:
			c.AMO(amoOpSwap, b.sense, mySense, 0, amoUpdateAlways)
		default:
			c.Store(b.sense, mySense)
		}
		return
	}
	c.SpinUntil(b.sense, proc.Equal(mySense))
}

// DisseminationBarrier is the O(P log P)-message, O(log P)-latency barrier
// of Hensgen/Finkel/Manber: in round k, CPU i signals CPU (i + 2^k) mod P
// and waits for a signal from (i - 2^k) mod P. It uses no atomic primitive
// at all — only per-pair flag words — so only the signalling store differs
// between the conventional coding (coherent store, invalidate + reload) and
// the AMO coding (amo.swap with an update push into the waiter's cache).
type DisseminationBarrier struct {
	amo    bool
	procs  int
	rounds int
	// flags[round][cpu] holds the episode number last signalled.
	flags [][]uint64

	episodes []uint64
}

// NewDisseminationBarrier builds dissemination state for procs CPUs; amo
// selects the AMO signalling coding.
func NewDisseminationBarrier(m *machine.Machine, procs int, amo bool) *DisseminationBarrier {
	if procs <= 0 {
		panic(fmt.Sprintf("syncprim: dissemination barrier needs positive procs, got %d", procs))
	}
	rounds := 0
	for 1<<rounds < procs {
		rounds++
	}
	b := &DisseminationBarrier{
		amo:      amo,
		procs:    procs,
		rounds:   rounds,
		episodes: make([]uint64, m.Cfg.Processors),
	}
	for r := 0; r < rounds; r++ {
		row := make([]uint64, procs)
		for i := 0; i < procs; i++ {
			// Each flag on its waiter's node, in its own block.
			row[i] = m.AllocWord(i / m.Cfg.ProcsPerNode)
		}
		b.flags = append(b.flags, row)
	}
	return b
}

// Rounds returns ceil(log2(procs)).
func (b *DisseminationBarrier) Rounds() int { return b.rounds }

// Wait blocks until all participants arrive.
func (b *DisseminationBarrier) Wait(c *proc.CPU) {
	me := c.ID()
	b.episodes[me]++
	e := b.episodes[me]
	for r := 0; r < b.rounds; r++ {
		partner := (me + 1<<r) % b.procs
		flag := b.flags[r][partner]
		if b.amo {
			c.AMO(amoOpSwap, flag, e, 0, amoUpdateAlways)
		} else {
			c.Store(flag, e)
		}
		c.SpinUntil(b.flags[r][me], proc.AtLeast(e))
	}
}
