package sim

// fifoMinCap is the capacity of a FIFO's first ring.
const fifoMinCap = 4

// FIFO is a first-in first-out queue on a ring buffer: the hardware
// models' request and transaction queues. The ring doubles only when it is
// full, so its capacity is the smallest power of two (at least fifoMinCap)
// that has held the high-water length, however pushes and pops interleave.
// A queue that never drains therefore stays bounded, and a warm FIFO
// pushes and pops without allocating. The zero value is an empty queue.
type FIFO[T any] struct {
	buf  []T // ring storage; len(buf) is zero or a power of two
	head int // index of the oldest element
	n    int // queued elements
}

// Len returns the number of queued elements.
func (q *FIFO[T]) Len() int { return q.n }

// Push appends v at the tail.
func (q *FIFO[T]) Push(v T) {
	if q.n == len(q.buf) {
		q.grow()
	}
	q.buf[(q.head+q.n)&(len(q.buf)-1)] = v
	q.n++
}

// Pop removes and returns the oldest element. The vacated slot is zeroed
// so the ring retains no references. It panics on an empty queue.
func (q *FIFO[T]) Pop() T {
	if q.n == 0 {
		panic("sim: Pop on empty FIFO")
	}
	var zero T
	v := q.buf[q.head]
	q.buf[q.head] = zero
	q.head = (q.head + 1) & (len(q.buf) - 1)
	q.n--
	return v
}

// grow doubles the ring, unwrapping the queued elements to its front.
func (q *FIFO[T]) grow() {
	buf := make([]T, max(fifoMinCap, 2*len(q.buf)))
	k := copy(buf, q.buf[q.head:])
	copy(buf[k:], q.buf[:q.head])
	q.buf, q.head = buf, 0
}
