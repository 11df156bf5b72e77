package sim

import "math/bits"

// wheelSpan is the width, in cycles, of the queue's bucket wheel: an event
// due less than wheelSpan cycles after the last popped event is filed in
// its cycle's FIFO bucket; every later one waits in the overflow heap. It
// must be a power of two. On the paper tables 95.7% of pushes land under
// 1024 cycles ahead and 99.8% under 2048.
const wheelSpan = 2048

const wheelMask = wheelSpan - 1

// event is one arena slot: the call to dispatch, its argument, and where
// it sorts.
type event struct {
	at Time
	// seq is the event's global sequence. On a parallel shard, zero means
	// the event was pushed during the current window and orders by local
	// (its push-log index) until the boundary assigns the real sequence.
	seq   uint64
	local int32
	next  int32 // the next slot in the same bucket
	call  func(any)
	arg   any
}

// bucket is one wheel cycle's FIFO list of arena slots, linked through
// event.next. It is empty when its occupancy bit is clear.
type bucket struct{ head, tail int32 }

// queue is the event queue of both kernels: one per Sequential engine and
// one per parallel shard. Events are dispatched in (time, sequence, local)
// order, with unassigned sequences (zero) after assigned ones.
//
// Events live in a pooled arena recycled through a free list, so neither
// scheduling nor dispatch allocates once the arena has warmed up. A push
// less than wheelSpan cycles ahead of the last popped time goes to the tail
// of its cycle's bucket; buckets are found through a two-level occupancy
// bitmap. Every other push goes to a binary heap of arena slots: pushes
// beyond the span, and pushes that would not sort after their bucket's
// tail. Pop takes the earlier of the earliest bucket's head and the heap
// top.
//
// The buckets stay sorted because of the tail check, so the queue is exact
// on every input; the kernels' push patterns only decide how often the heap
// is used. On Sequential every push gets a fresh sequence and sorts after
// everything queued. On a shard, in-window pushes carry increasing local
// indices behind every assigned sequence, and between-run pushes get a
// fresh sequence. Only a cross-shard delivery ranked at a window boundary
// can sort before an event already queued for its cycle; the tail check
// sends it to the heap. A boundary assigning sequences to queued events
// never reorders them (see Parallel), so neither the heap nor a bucket
// needs fixing up.
type queue struct {
	arena []event
	free  []int32
	heap  []int32
	wheel [wheelSpan]bucket
	// occ has bit i set when bucket i is non-empty; summary has bit w set
	// when occ[w] is non-zero.
	occ     [wheelSpan / 64]uint64
	summary uint64
	// last is the time of the last popped event. Every bucketed event is
	// due in [last, last+wheelSpan), so a bucket holds exactly one cycle.
	last Time
	n    int // queued events
}

// push queues an event and returns its arena slot.
func (q *queue) push(at Time, seq uint64, local int32, call func(any), arg any) int32 {
	var id int32
	if n := len(q.free); n > 0 {
		id = q.free[n-1]
		q.free = q.free[:n-1]
	} else {
		q.arena = append(q.arena, event{})
		id = int32(len(q.arena) - 1)
	}
	ev := &q.arena[id]
	ev.at, ev.seq, ev.local, ev.call, ev.arg = at, seq, local, call, arg
	q.n++
	if at-q.last < wheelSpan {
		i := at & wheelMask
		b := &q.wheel[i]
		if bit := uint64(1) << (i & 63); q.occ[i>>6]&bit == 0 {
			b.head, b.tail = id, id
			q.occ[i>>6] |= bit
			q.summary |= 1 << (i >> 6)
			return id
		}
		if q.before(b.tail, id) {
			q.arena[b.tail].next = id
			b.tail = id
			return id
		}
	}
	q.heap = append(q.heap, id)
	q.siftUp(len(q.heap) - 1)
	return id
}

// peek returns the slot of the earliest queued event. The queue must not be
// empty.
func (q *queue) peek() int32 {
	id := int32(-1)
	if q.summary != 0 {
		id = q.wheel[q.firstBucket()].head
	}
	if len(q.heap) > 0 && (id < 0 || q.before(q.heap[0], id)) {
		id = q.heap[0]
	}
	return id
}

// nextAt returns the time of the earliest queued event, or the largest Time
// when the queue is empty.
func (q *queue) nextAt() Time {
	if q.n == 0 {
		return ^Time(0)
	}
	return q.arena[q.peek()].at
}

// runAhead reports whether an event pushed now for time at would be the
// next one popped: every queued event is due strictly later, since one due
// at at was pushed earlier and sorts first. If so, it moves the wheel
// origin to at, as pushing and popping that event would.
func (q *queue) runAhead(at Time) bool {
	if q.nextAt() <= at {
		return false
	}
	q.last = at
	return true
}

// pop removes slot id, which peek has just returned, and recycles it. The
// slot is zeroed, so a caller copies what it needs before popping; the
// handler it then dispatches may reuse the slot at once.
func (q *queue) pop(id int32) {
	ev := &q.arena[id]
	if len(q.heap) > 0 && q.heap[0] == id {
		last := len(q.heap) - 1
		q.heap[0] = q.heap[last]
		q.heap = q.heap[:last]
		if last > 0 {
			q.siftDown(0)
		}
	} else {
		i := ev.at & wheelMask
		b := &q.wheel[i]
		if b.head != b.tail {
			b.head = ev.next
		} else {
			q.occ[i>>6] &^= 1 << (i & 63)
			if q.occ[i>>6] == 0 {
				q.summary &^= 1 << (i >> 6)
			}
		}
	}
	q.last = ev.at
	q.n--
	*ev = event{}
	q.free = append(q.free, id)
}

// firstBucket returns the index of the earliest non-empty bucket: the first
// occupied one at or after the wheel origin (last), wrapping around. Some
// bucket must be occupied.
func (q *queue) firstBucket() Time {
	o := q.last & wheelMask
	w := o >> 6
	if m := q.occ[w] >> (o & 63); m != 0 {
		return o + Time(bits.TrailingZeros64(m))
	}
	if m := q.summary >> (w + 1); m != 0 {
		w += 1 + Time(bits.TrailingZeros64(m))
	} else {
		w = Time(bits.TrailingZeros64(q.summary))
	}
	return w<<6 + Time(bits.TrailingZeros64(q.occ[w]))
}

// before is the dispatch order both kernels share: time, then sequence with
// unassigned (zero) after every assigned one, then local push index.
func (q *queue) before(a, b int32) bool {
	ea, eb := &q.arena[a], &q.arena[b]
	if ea.at != eb.at {
		return ea.at < eb.at
	}
	if ea.seq != eb.seq {
		return ea.seq-1 < eb.seq-1 // zero wraps to the largest value
	}
	return ea.local < eb.local
}

func (q *queue) siftUp(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !q.before(q.heap[i], q.heap[parent]) {
			break
		}
		q.heap[i], q.heap[parent] = q.heap[parent], q.heap[i]
		i = parent
	}
}

func (q *queue) siftDown(i int) {
	n := len(q.heap)
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		m := l
		if r := l + 1; r < n && q.before(q.heap[r], q.heap[l]) {
			m = r
		}
		if !q.before(q.heap[m], q.heap[i]) {
			break
		}
		q.heap[i], q.heap[m] = q.heap[m], q.heap[i]
		i = m
	}
}
