package sim

import "testing"

// TestFIFOOrderAcrossWrapAndGrowth checks arrival order when the head has
// wrapped past the end of the ring, and when a full, wrapped ring grows.
func TestFIFOOrderAcrossWrapAndGrowth(t *testing.T) {
	var q FIFO[int]
	next, want := 0, 0
	push := func(k int) {
		for i := 0; i < k; i++ {
			q.Push(next)
			next++
		}
	}
	pop := func(k int) {
		for i := 0; i < k; i++ {
			if got := q.Pop(); got != want {
				t.Fatalf("Pop = %d, want %d", got, want)
			}
			want++
		}
	}
	push(fifoMinCap)
	pop(fifoMinCap - 1)
	push(fifoMinCap - 1) // wraps: the head is at the last slot
	if len(q.buf) != fifoMinCap || q.head != fifoMinCap-1 {
		t.Fatalf("after wrap: cap %d head %d, want %d and %d", len(q.buf), q.head, fifoMinCap, fifoMinCap-1)
	}
	push(3) // grows a full ring whose head is not at slot 0
	if len(q.buf) != 2*fifoMinCap {
		t.Fatalf("after growth: cap %d, want %d", len(q.buf), 2*fifoMinCap)
	}
	pop(q.Len())
	if q.Len() != 0 || want != next {
		t.Fatalf("drained: Len %d, popped %d of %d", q.Len(), want, next)
	}
	for i := range q.buf {
		if q.buf[i] != 0 {
			t.Fatalf("slot %d still holds %d after draining", i, q.buf[i])
		}
	}
}

// TestFIFONeverDrainingStaysBounded is the runaway-queue case: a producer
// that pushes two for every one consumed never lets the queue empty. The
// ring must stay within twice the high-water length, and in order.
func TestFIFONeverDrainingStaysBounded(t *testing.T) {
	var q FIFO[int]
	next, want, high := 0, 0, 0
	for ops := 0; ops < 10_000; ops += 3 {
		q.Push(next)
		q.Push(next + 1)
		next += 2
		high = max(high, q.Len())
		if got := q.Pop(); got != want {
			t.Fatalf("Pop = %d, want %d", got, want)
		}
		want++
	}
	if len(q.buf) > 2*high {
		t.Fatalf("cap %d exceeds twice the high-water length %d", len(q.buf), high)
	}
	if q.Len() != next-want {
		t.Fatalf("Len %d, want %d", q.Len(), next-want)
	}
}

func TestFIFOPopEmptyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Pop on an empty FIFO did not panic")
		}
	}()
	var q FIFO[int]
	q.Push(1)
	q.Pop()
	q.Pop()
}

// TestFIFOSteadyStateZeroAlloc pins the warm ring at zero allocations,
// with the head wrapping on every burst.
func TestFIFOSteadyStateZeroAlloc(t *testing.T) {
	var q FIFO[func()]
	fn := func() {}
	burst := func() {
		for i := 0; i < 24; i++ {
			q.Push(fn)
			if i%3 == 2 {
				q.Pop()
			}
		}
		for q.Len() > 0 {
			q.Pop()
		}
	}
	burst() // grow the ring to the burst's high-water length
	if allocs := testing.AllocsPerRun(100, burst); allocs != 0 {
		t.Fatalf("warm FIFO allocates %.1f/burst, want 0", allocs)
	}
}
