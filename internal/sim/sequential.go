package sim

// Sequential is the single-queue discrete-event kernel: one event queue,
// one clock, events dispatched strictly in (time, sequence) order. The zero
// value is not usable; create one with NewSequential.
//
// The event queue (see queue) is allocation-free in steady state: events
// live in a pooled arena, filed in per-cycle FIFO buckets when due within
// the wheel span and in a binary heap of arena slots otherwise, so neither
// scheduling nor dispatch boxes through interfaces or allocates once the
// arena has warmed up. Every push takes the next sequence, so one within
// the span always joins its bucket's tail. ScheduleCall stores a prebound
// func(any) and a pointer argument without allocating.
type Sequential struct {
	now      Time
	deadline Time // the running RunUntil's bound
	seq      uint64
	q        queue
	executed uint64
	pool     procPool
	stopped  bool
	// running guards against re-entrant Run calls from event handlers.
	running bool
	sink    func(cycle uint64, kind, what string)
}

// NewSequential returns an empty engine at time zero.
func NewSequential() *Sequential {
	return &Sequential{}
}

// Now returns the current simulated time.
func (e *Sequential) Now() Time { return e.now }

// Executed reports the total number of events the engine has dispatched.
func (e *Sequential) Executed() uint64 { return e.executed }

// ForNode implements Engine: the sequential kernel is its own view for
// every node.
func (e *Sequential) ForNode(node int) Engine { return e }

// NumShards implements Engine.
func (e *Sequential) NumShards() int { return 1 }

// NodeShard implements Engine.
func (e *Sequential) NodeShard(node int) int { return 0 }

// Emit implements Engine: with a single queue, execution order is emission
// order, so records flow straight to the sink.
func (e *Sequential) Emit(cycle uint64, kind, what string) {
	if e.sink != nil {
		e.sink(cycle, kind, what)
	}
}

// SetEmitSink implements Engine.
func (e *Sequential) SetEmitSink(sink func(cycle uint64, kind, what string)) { e.sink = sink }

// ScheduleCall runs call(arg) at now+delay. Events scheduled at the same
// instant run in scheduling order. It may be called from event handlers and
// from processes. With a prebound call (package-level func or a func value
// created once at construction) and a pointer-typed arg, scheduling stores
// both into a pooled event slot without heap allocation.
func (e *Sequential) ScheduleCall(delay Time, call func(any), arg any) {
	if call == nil {
		panic("sim: ScheduleCall with nil call")
	}
	e.push(e.now+delay, call, arg)
}

// ScheduleCallNode implements Engine: with a single shard the destination
// node never changes the queue.
func (e *Sequential) ScheduleCallNode(node int, delay Time, call func(any), arg any) {
	e.ScheduleCall(delay, call, arg)
}

func (e *Sequential) push(at Time, call func(any), arg any) {
	e.seq++
	e.q.push(at, e.seq, 0, call, arg)
}

// Pending reports the number of queued events.
func (e *Sequential) Pending() int { return e.q.n }

// LiveProcesses reports the number of spawned processes that have not yet
// returned.
func (e *Sequential) LiveProcesses() int { return e.pool.live }

// Run executes events until the queue drains. It returns nil when the queue
// is empty and no processes remain parked, or an *ErrDeadlock if parked
// processes can never be woken.
func (e *Sequential) Run() error {
	return e.RunUntil(^Time(0))
}

// RunUntil executes events with timestamps <= deadline. It returns nil if the
// simulation quiesced (possibly before the deadline), an *ErrDeadlock on
// deadlock, or ErrDeadline if the deadline fired with work remaining.
func (e *Sequential) RunUntil(deadline Time) error {
	if e.running {
		panic("sim: re-entrant Run")
	}
	e.running = true
	defer func() { e.running = false }()
	e.deadline = deadline
	for e.q.n > 0 && !e.stopped {
		id := e.q.peek()
		ev := &e.q.arena[id]
		if ev.at > deadline {
			return ErrDeadline
		}
		if ev.at < e.now {
			panic("sim: time went backwards")
		}
		e.now = ev.at
		call, arg := ev.call, ev.arg
		e.q.pop(id)
		e.executed++
		call(arg)
	}
	if e.pool.live > 0 && !e.stopped {
		return &ErrDeadlock{At: e.now, Procs: e.pool.live}
	}
	return nil
}

// Stop makes Run return after the current event completes. Parked processes
// remain parked; call Shutdown to unwind them.
func (e *Sequential) Stop() { e.stopped = true }

// Shutdown stops every process carrier: parked processes unwind, idle
// carriers exit, and processes never dispatched never run. After Shutdown
// the engine must not be used. It is safe to call Shutdown multiple times,
// and after Run panicked. Shutdown must not be called from inside a process
// or event handler.
func (e *Sequential) Shutdown() { e.pool.shutdown() }

// --- scheduler (process support) --------------------------------------------

func (e *Sequential) schedCall(delay Time, call func(any), arg any) {
	e.ScheduleCall(delay, call, arg)
}

func (e *Sequential) clock() Time { return e.now }

// runAhead dispatches a sleeping process's wake in place when the run loop
// would dispatch it next: no queued event is due at or before now+d (see
// queue.runAhead), the wake is within RunUntil's deadline, and Stop has not
// been called. The wake takes its sequence and counts as executed, exactly
// as if it had been pushed and popped.
func (e *Sequential) runAhead(d Time) bool {
	at := e.now + d
	if e.stopped || at > e.deadline || !e.q.runAhead(at) {
		return false
	}
	e.seq++
	e.now = at
	e.executed++
	return true
}

// Spawn starts fn as a new process after delay cycles. The process runs to
// completion unless the engine is shut down first. name is used in debugging
// output only. A panic inside fn, other than the one Shutdown uses to unwind
// a parked process, propagates out of Run with its original value; the
// engine is then unusable except for Shutdown.
func (e *Sequential) Spawn(name string, delay Time, fn func(p *Process)) *Process {
	return spawn(e, &e.pool, name, delay, fn)
}
