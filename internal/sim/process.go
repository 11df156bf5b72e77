//go:build go1.23

// The build constraint raises this file's language version to the one that
// introduced package iter, leaving the module's go directive at 1.22.

package sim

import "iter"

// scheduler is the narrow kernel surface a process needs: it is implemented
// by *Sequential and by the parallel engine's per-node shard views, so the
// same Process type runs on both kernels.
type scheduler interface {
	schedCall(delay Time, call func(any), arg any)
	clock() Time
	// runAhead moves the clock forward by d in place of queueing and
	// dispatching a sleeping process's wake, when that wake would be the
	// next event dispatched anyway, and reports whether it did. The skipped
	// wake counts as dispatched and takes its place in the event order.
	runAhead(d Time) bool
}

// procPool is one scheduler's process bookkeeping: the live-process count
// and the carriers that run its processes. A carrier is an iter.Pull
// coroutine that runs one process function after another: when a process
// returns, its carrier parks on idle until the next Spawn on the same
// scheduler reuses it. Like the event heap, a pool belongs to whichever
// goroutine is executing its scheduler, so at most one of its coroutines
// runs at a time.
type procPool struct {
	live     int        // spawned processes that have not yet returned
	carriers []*carrier // every carrier started, for Shutdown
	idle     []*carrier // carriers whose process returned
}

// carrier is one reusable coroutine. p and fn are the process it runs or
// will run next; next resumes the coroutine and stop ends it.
type carrier struct {
	p    *Process
	fn   func(p *Process)
	next func() (struct{}, bool)
	stop func()
}

// shutdown ends every carrier: a parked process unwinds through
// shutdownSentinel, an idle carrier leaves its loop, and a process never
// dispatched never runs. A carrier whose process panicked is already done,
// and a second shutdown finds no carriers.
func (pp *procPool) shutdown() {
	for _, c := range pp.carriers {
		c.stop()
	}
	pp.carriers, pp.idle = nil, nil
}

// Process is a simulated thread of control backed by a coroutine. Exactly
// one process (or event handler) executes at a time on a given shard,
// handing control back to the kernel whenever it sleeps or parks, so the
// simulation stays deterministic and shared simulated state needs no
// locking.
type Process struct {
	eng  scheduler
	name string
	// next switches kernel->process and returns once the process parks or
	// returns; yield switches back and reports false once Shutdown stopped
	// the carrier. Both are direct coroutine switches, with no trip through
	// the Go scheduler. A finished process has neither.
	next  func() (struct{}, bool)
	yield func(struct{}) bool
	// suspended marks a process parked by Suspend, which only Resume ends.
	suspended bool
}

// dispatchCall adapts Process.dispatch to the engine's allocation-free
// ScheduleCall form; a single package-level func value serves every process.
var dispatchCall = func(a any) { a.(*Process).dispatch() }

// shutdownSentinel is panicked inside a process when the engine is shut
// down, unwinding its stack so the carrier exits.
type shutdownSentinel struct{}

// spawn starts fn as a new process after delay cycles on s, on an idle
// carrier from pp when there is one and on a new carrier otherwise. The
// process runs to completion unless the engine is shut down first. name is
// used in debugging output only.
func spawn(s scheduler, pp *procPool, name string, delay Time, fn func(p *Process)) *Process {
	p := &Process{eng: s, name: name}
	pp.live++
	var c *carrier
	if n := len(pp.idle); n > 0 {
		c = pp.idle[n-1]
		pp.idle[n-1] = nil
		pp.idle = pp.idle[:n-1]
	} else {
		c = &carrier{}
		c.next, c.stop = iter.Pull(func(yield func(struct{}) bool) {
			defer func() {
				if r := recover(); r != nil {
					if _, ok := r.(shutdownSentinel); ok {
						return // engine shut down; exit quietly
					}
					panic(r) // iter.Pull re-raises it in the dispatcher
				}
			}()
			for {
				cur := c.p
				cur.yield = yield
				c.fn(cur)
				cur.next, cur.yield = nil, nil
				c.p, c.fn = nil, nil
				pp.live--
				pp.idle = append(pp.idle, c)
				if !yield(struct{}{}) {
					return // stopped while idle
				}
			}
		})
		pp.carriers = append(pp.carriers, c)
	}
	c.p, c.fn = p, fn
	p.next = c.next
	s.schedCall(delay, dispatchCall, p)
	return p
}

// dispatch transfers control from the kernel to the process and returns
// when the process parks again or finishes. Called only from event context.
func (p *Process) dispatch() {
	p.next()
}

// park returns control to the kernel and resumes when dispatched again.
// Whoever wakes this process must do so by scheduling p.dispatch (via
// Sleep) or by calling Resume from an event, never by resuming the carrier
// directly.
func (p *Process) park() {
	if !p.yield(struct{}{}) {
		panic(shutdownSentinel{})
	}
}

// Name returns the debugging name given at Spawn.
func (p *Process) Name() string { return p.name }

// Now returns the current simulated time.
func (p *Process) Now() Time { return p.eng.clock() }

// Sleep suspends the process for d cycles. When its wake would be the next
// event dispatched anyway (nothing else is due at or before now+d, and the
// run goes on that far), Sleep advances the clock and returns without
// parking; the event order is the one a parked sleep gives. Sleep(0) still
// yields to other work scheduled at the current instant.
func (p *Process) Sleep(d Time) {
	if p.eng.runAhead(d) {
		return
	}
	p.eng.schedCall(d, dispatchCall, p)
	p.park()
}

// Suspend parks the process until an event handler calls Resume. The
// handler decides in event context whether the process has anything to do,
// so a wait that mostly re-checks state can stay parked without a coroutine
// switch per check, and a wait for one event can resume the process from an
// event scheduled where its dispatch would be.
func (p *Process) Suspend() {
	p.suspended = true
	p.park()
}

// Resume runs a suspended process inside the current event, which becomes
// its dispatch: the process sees that event's time, and its pushes and Emit
// records carry that event's lineage on both kernels. Resume returns once
// the process parks again or finishes, so it must be called only from
// event context, on the process's own shard, as the event's last action.
// Resuming a process that is not suspended (one that is running, sleeping
// or finished) panics.
func (p *Process) Resume() {
	if !p.suspended {
		panic("sim: Resume of a process that is not suspended")
	}
	p.suspended = false
	p.dispatch()
}
