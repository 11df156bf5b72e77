package network

// This file is the lifecycle-rule fixture for pooled buffers and message
// records: Pool has a word-buffer pool behind acquireBuf/releaseBuf and the
// production Network's msgFree record pool, and the fixture functions below
// re-create the bug shapes the rule exists to catch — including the two
// historical ones (a pooled value orphaned on a retry path, and a buffer
// released while a scheduled call still holds it).

// Pool holds a buffer pool and a record pool.
type Pool struct {
	bufFree [][]uint64
	msgFree []*Packet
	eng     Eng
}

// Packet is a record that can carry a buffer.
type Packet struct {
	Data []uint64
}

// Eng mirrors the event engine's prebound-call scheduler.
type Eng struct{}

// ScheduleCall mirrors sim.Engine.ScheduleCall: arg ownership transfers to
// the scheduled call.
func (Eng) ScheduleCall(delay uint64, call func(any), arg any) {}

// acquireBuf pops a pooled buffer, or allocates a fresh one.
func (p *Pool) acquireBuf(words int) []uint64 {
	if k := len(p.bufFree) - 1; k >= 0 && cap(p.bufFree[k]) >= words {
		b := p.bufFree[k][:words]
		p.bufFree = p.bufFree[:k]
		return b
	}
	return make([]uint64, words)
}

// releaseBuf recycles a buffer into the pool.
func (p *Pool) releaseBuf(b []uint64) {
	p.bufFree = append(p.bufFree, b)
}

// Deliver consumes a packet and the buffer it carries.
func (p *Pool) Deliver(pkt Packet) {}

func busy(b []uint64) bool { return len(b) == 0 }

func checksum(b []uint64) uint64 {
	var s uint64
	for _, w := range b {
		s += w
	}
	return s
}

// UseAfterRelease reads a buffer after returning it to the pool.
func UseAfterRelease(p *Pool) uint64 {
	b := p.acquireBuf(4)
	b[0] = 7
	p.releaseBuf(b)
	return b[0] // want `use of released pooled value "b"`
}

// DoubleRelease returns the same buffer twice.
func DoubleRelease(p *Pool) {
	b := p.acquireBuf(4)
	p.releaseBuf(b)
	p.releaseBuf(b) // want `double release of pooled value "b"`
}

// ReleaseAfterHandoff is historical shape 2: the payload buffer is stored
// into a packet whose owner will recycle it after delivery, but the sender
// releases it locally too — the pool hands the same buffer out twice.
func ReleaseAfterHandoff(p *Pool, pkt *Packet) {
	b := p.acquireBuf(8)
	pkt.Data = b
	p.releaseBuf(b) // want `release of pooled value "b" \(acquireBuf, line \d+\) whose ownership was already transferred`
}

// LeakOnRetry is historical shape 1: the busy/retry path skips the release,
// orphaning one pooled buffer per retry.
func LeakOnRetry(p *Pool, retries int) {
	for i := 0; i < retries; i++ {
		b := p.acquireBuf(8)
		if busy(b) {
			continue // want `pooled value "b" \(acquireBuf, line \d+\) may leak`
		}
		p.releaseBuf(b)
	}
}

// DiscardedAcquire drops the acquired buffer on the floor at the call site.
func DiscardedAcquire(p *Pool) {
	p.acquireBuf(4) // want `result of acquireBuf discarded`
}

// OverwriteLive loses the only reference to a live buffer by reassignment.
func OverwriteLive(p *Pool) {
	b := p.acquireBuf(4)
	b = p.acquireBuf(8) // want `pooled value "b" \(acquireBuf, line \d+\) overwritten while still live`
	p.releaseBuf(b)
}

// LeakStraight never releases at all; the leak reports where the value
// goes out of scope.
func LeakStraight(p *Pool) {
	b := p.acquireBuf(4)
	b[0] = 1
} // want `pooled value "b" \(acquireBuf, line \d+\) may leak`

// KindLeak releases only inside the switch arm: the no-match path leaks.
func KindLeak(p *Pool, kind int) {
	b := p.acquireBuf(4)
	switch kind {
	case 0:
		p.releaseBuf(b)
	}
} // want `pooled value "b" \(acquireBuf, line \d+\) may leak`

// ReleaseThenSchedule recycles a message record and then schedules it
// anyway: the scheduled call will touch a slot the pool may have reissued.
func ReleaseThenSchedule(p *Pool, deliver func(any)) {
	pm := p.msgFree[len(p.msgFree)-1]
	p.msgFree = p.msgFree[:len(p.msgFree)-1]
	p.msgFree = append(p.msgFree, pm)
	p.eng.ScheduleCall(1, deliver, pm) // want `use of released pooled value "pm"`
}

// CleanRoundTrip releases on every path out: no findings.
func CleanRoundTrip(p *Pool, n int) uint64 {
	b := p.acquireBuf(n)
	sum := checksum(b)
	if n > 4 {
		p.releaseBuf(b)
		return sum
	}
	p.releaseBuf(b)
	return 0
}

// CleanOwnedHandoff stores the buffer into a packet: the receiver's pool
// gets it back after delivery, so this frame must not release it.
func CleanOwnedHandoff(p *Pool) {
	b := p.acquireBuf(8)
	b[0] = 1
	p.Deliver(Packet{Data: b})
}

// BorrowedInspect passes the buffer to a reader and keeps ownership: plain
// call arguments are borrows, not transfers.
func BorrowedInspect(p *Pool) uint64 {
	b := p.acquireBuf(8)
	s := checksum(b)
	p.releaseBuf(b)
	return s
}

// ScheduledHandoff pops a message record and hands it to the engine: the
// prebound call owns it now.
func ScheduledHandoff(p *Pool, deliver func(any)) {
	pm := p.msgFree[len(p.msgFree)-1]
	p.msgFree = p.msgFree[:len(p.msgFree)-1]
	p.eng.ScheduleCall(1, deliver, pm)
}

// KindDispatch releases or transfers on every switch arm: no findings.
func KindDispatch(p *Pool, kind int) {
	b := p.acquireBuf(4)
	switch kind {
	case 0:
		p.releaseBuf(b)
	case 1:
		p.Deliver(Packet{Data: b})
	default:
		p.releaseBuf(b)
	}
}
