package syncprim

import (
	"fmt"

	"amosim/internal/machine"
	"amosim/internal/proc"
)

// TicketLock is the FIFO lock of Mellor-Crummey & Scott (Figure 4 of the
// paper): a sequencer (next_ticket) incremented atomically by acquirers and
// a counter (now_serving) advanced by the releaser. The two words live in
// separate cache blocks. The atomic primitive comes from the mechanism; the
// AMO version also advances now_serving with amo.fetchadd so the new value
// is pushed into every spinner's cache instead of invalidating them.
type TicketLock struct {
	mech    Mechanism
	next    uint64
	serving uint64
	// backoff, when nonzero, inserts proportional backoff into the spin
	// (Mellor-Crummey & Scott's optimization): each waiter sleeps
	// backoff * distance cycles between checks.
	backoff uint64
}

// NewTicketLock allocates lock state on the given home node.
func NewTicketLock(m *machine.Machine, mech Mechanism, home int) *TicketLock {
	if mech == ActMsg {
		RegisterHandlers(m)
	}
	return &TicketLock{
		mech:    mech,
		next:    m.AllocWord(home),
		serving: m.AllocWord(home),
	}
}

// SetBackoff enables proportional backoff with the given base cycles.
func (l *TicketLock) SetBackoff(base uint64) { l.backoff = base }

// Acquire takes the lock and returns the ticket to pass to Release.
func (l *TicketLock) Acquire(c *proc.CPU) uint64 {
	my := FetchAdd(c, l.mech, l.next, 1)
	if l.backoff == 0 {
		c.SpinUntil(l.serving, proc.AtLeast(my))
		return my
	}
	for {
		v := c.Load(l.serving)
		if v >= my {
			return my
		}
		c.Think(l.backoff * (my - v))
	}
}

// Release hands the lock to the next ticket holder.
func (l *TicketLock) Release(c *proc.CPU, ticket uint64) {
	switch l.mech {
	case AMO:
		// amo.fetchadd pushes the new now_serving into spinners' caches.
		c.AMOFetchAdd(l.serving, 1)
	default:
		c.Store(l.serving, ticket+1)
	}
}

// ArrayLock is T. Anderson's array-based queuing lock: a sequencer indexes
// into an array of per-waiter flags, each in its own cache block, so a
// release invalidates (or, with AMO, updates) exactly one waiter.
type ArrayLock struct {
	mech  Mechanism
	seq   uint64
	flags []uint64
	size  int
}

// NewArrayLock allocates a lock sized for the given waiter bound (usually
// the processor count) on the home node, with each flag in its own block.
// Slot 0 starts holding the token.
func NewArrayLock(m *machine.Machine, mech Mechanism, slots, home int) *ArrayLock {
	if slots < 1 {
		panic(fmt.Sprintf("syncprim: array lock needs >= 1 slot, got %d", slots))
	}
	if mech == ActMsg {
		RegisterHandlers(m)
	}
	l := &ArrayLock{mech: mech, seq: m.AllocWord(home), size: slots}
	for i := 0; i < slots; i++ {
		l.flags = append(l.flags, m.AllocWord(home))
	}
	m.Mem.WriteWord(l.flags[0], 1) // the token starts at slot 0
	return l
}

// Acquire takes the lock, returning the slot to pass to Release.
func (l *ArrayLock) Acquire(c *proc.CPU) int {
	slot := int(FetchAdd(c, l.mech, l.seq, 1) % uint64(l.size))
	c.SpinUntil(l.flags[slot], proc.AtLeast(1))
	// Consume the token so the slot can be reused after wrap-around.
	switch l.mech {
	case AMO:
		c.AMO(amoOpSwap, l.flags[slot], 0, 0, amoUpdateAlways)
	default:
		c.Store(l.flags[slot], 0)
	}
	return slot
}

// Release passes the token to the next slot.
func (l *ArrayLock) Release(c *proc.CPU, slot int) {
	next := l.flags[(slot+1)%l.size]
	switch l.mech {
	case AMO:
		// Update-in-place: only the next waiter's cached flag is patched.
		c.AMO(amoOpSwap, next, 1, 0, amoUpdateAlways)
	default:
		c.Store(next, 1)
	}
}

// NextAddr returns the sequencer's address (for tests and debugging).
func (l *TicketLock) NextAddr() uint64 { return l.next }

// ServingAddr returns the counter's address (for tests and debugging).
func (l *TicketLock) ServingAddr() uint64 { return l.serving }
