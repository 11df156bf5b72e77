package sim

import (
	"cmp"
	"slices"
	"sync/atomic"
)

// Parallel is the conservative parallel discrete-event kernel. Nodes are
// partitioned across shards; each shard owns an independent event queue,
// clock, and process set, and executes one lookahead window at a time on its
// own goroutine. The window width is the minimum cross-shard message latency
// (derived by the machine from the topology's hop table), so no event
// executed inside a window can affect another shard within the same window:
// cross-shard deliveries are staged and exchanged at window boundaries.
//
// Determinism. Parallel reproduces the Sequential kernel's exact total event
// order, not merely some legal order. Sequential orders same-timestamp
// events by push sequence, and pushes happen in the order pushing events
// execute. The shard kernels preserve that order piecewise:
//
//   - events that already carry a global sequence (assigned at a previous
//     boundary or pushed from setup context) order by it, exactly as in the
//     sequential queue;
//   - events pushed during the current window carry their shard-local push
//     index instead, and always sort after every sequence-carrying event at
//     the same timestamp. That matches Sequential, where every pre-window
//     push received a smaller sequence than any in-window push, and where
//     the relative order of one shard's in-window pushes equals its local
//     execution order (a shard's events execute in the same relative order
//     under both kernels, and cross-shard pushes cannot land inside the
//     window that issued them).
//
// At each boundary the coordinator replays the window's push log in the
// order Sequential would have performed the pushes — pushing events execute
// in (time, sequence) order, so records are ranked by (pusher time, pusher
// sequence, push index), resolving pushers that themselves gained their
// sequence this window in dependency rounds — and assigns global sequences
// from one monotone counter. The assignment never reorders a live queue
// (assigned-before-unassigned and local push order are both preserved by
// construction), after which cross-shard messages are delivered and staged
// trace records are flushed to the sink in (time, sequence, emission) order.
type Parallel struct {
	nodeShard []int32
	window    Time // lookahead width; 0 = unbounded (single shard)
	shards    []*shard
	seq       uint64 // global order counter: setup pushes + boundary ranking
	now       Time   // global clock: latest executed event time
	sink      func(cycle uint64, kind, what string)
	emits     []emission // boundary merge scratch
	refs      []recRef   // boundary ranking scratch
	ready     []recRef
	running   bool
	started   bool
	shutdown  bool
	stopped   atomic.Bool
	doneCh    chan struct{}
}

// pushRec logs one push performed during a window: enough lineage to rank it
// exactly where Sequential would have pushed it, plus the payload for
// cross-shard pushes (local pushes live in the shard arena immediately).
type pushRec struct {
	at        Time
	src       int32
	dst       int32
	slot      int32 // arena slot in src shard for local pushes; -1 for cross
	executed  bool  // local event already dispatched within the window
	seq       uint64
	pusherAt  Time
	pusherSeq uint64 // 0: pusher itself was pushed this window
	pusherLoc int32  // pusher's push-log index when pusherSeq == 0
	fn        func()
	call      func(any)
	arg       any
}

// recRef addresses one pushRec during boundary ranking.
type recRef struct {
	shard int32
	idx   int32
}

// emission is one staged trace record, keyed by the emitting event.
type emission struct {
	at    Time
	seq   uint64
	local int32
	n     int32
	cycle uint64
	kind  string
	what  string
}

// shard is one partition's event kernel: the same event queue as the
// sequential kernel (see queue) plus window bookkeeping. All fields are
// owned by the shard's worker goroutine during a window and by the
// coordinator between windows (the window/done channel pair orders the
// ownership handoff).
type shard struct {
	par      *Parallel
	id       int32
	now      Time
	end      Time // current window end (exclusive), for lookahead asserts
	q        queue
	executed uint64
	pool     procPool
	pushLog  []pushRec
	emits    []emission
	// lineage of the currently executing event
	curAt    Time
	curSeq   uint64
	curLocal int32
	emitCnt  int32
	inEvent  bool
	windowCh chan Time
}

// NewParallel returns a parallel engine over shards partitions. nodeShard
// maps every node to its owning shard (values in [0, shards)); window is the
// conservative lookahead width in cycles — the minimum latency of any
// cross-shard message. A window of 0 is only legal with one shard.
func NewParallel(shards int, nodeShard []int, window Time) *Parallel {
	if shards <= 0 {
		panic("sim: NewParallel needs at least one shard")
	}
	if shards > 1 && window == 0 {
		panic("sim: multi-shard engine needs a positive lookahead window")
	}
	par := &Parallel{
		window:    window,
		nodeShard: make([]int32, len(nodeShard)),
		doneCh:    make(chan struct{}),
	}
	if shards == 1 {
		par.window = 0
	}
	for i, sh := range nodeShard {
		if sh < 0 || sh >= shards {
			panic("sim: nodeShard entry out of range")
		}
		par.nodeShard[i] = int32(sh)
	}
	for i := 0; i < shards; i++ {
		par.shards = append(par.shards, &shard{
			par:      par,
			id:       int32(i),
			curLocal: -1,
			windowCh: make(chan Time),
		})
	}
	return par
}

// Now returns the global clock: the latest executed event time. Between
// runs (and at every boundary) all shard clocks agree with it.
func (par *Parallel) Now() Time { return par.now }

// Executed reports total dispatched events across all shards.
func (par *Parallel) Executed() uint64 {
	var n uint64
	for _, s := range par.shards {
		n += s.executed
	}
	return n
}

// ShardExecuted reports the per-shard dispatch counts, indexed by shard.
func (par *Parallel) ShardExecuted() []uint64 {
	out := make([]uint64, len(par.shards))
	for i, s := range par.shards {
		out[i] = s.executed
	}
	return out
}

// NumShards implements Engine.
func (par *Parallel) NumShards() int { return len(par.shards) }

// NodeShard implements Engine.
func (par *Parallel) NodeShard(node int) int { return int(par.nodeShard[node]) }

// Window reports the lookahead window width in cycles.
func (par *Parallel) Window() Time { return par.window }

// ForNode returns the node's shard view; all scheduling and clock reads by
// the node's components must go through it.
func (par *Parallel) ForNode(node int) Engine { return par.shards[par.nodeShard[node]] }

// Emit implements Engine for coordinator/setup context (never during a
// window; components emit through their shard views).
func (par *Parallel) Emit(cycle uint64, kind, what string) {
	if par.running {
		panic("sim: Emit on the parallel coordinator during Run")
	}
	if par.sink != nil {
		par.sink(cycle, kind, what)
	}
}

// SetEmitSink implements Engine.
func (par *Parallel) SetEmitSink(sink func(cycle uint64, kind, what string)) { par.sink = sink }

// Schedule implements Engine for setup context: the event lands on shard 0.
// Components must schedule through their shard views instead.
func (par *Parallel) Schedule(delay Time, fn func()) {
	par.shards[0].Schedule(delay, fn)
}

// ScheduleCall implements Engine for setup context (see Schedule).
func (par *Parallel) ScheduleCall(delay Time, call func(any), arg any) {
	par.shards[0].ScheduleCall(delay, call, arg)
}

// ScheduleCallNode implements Engine: the event lands on node's shard.
func (par *Parallel) ScheduleCallNode(node int, delay Time, call func(any), arg any) {
	par.shards[par.nodeShard[node]].ScheduleCall(delay, call, arg)
}

// Spawn implements Engine for setup context: the process runs on shard 0.
func (par *Parallel) Spawn(name string, delay Time, fn func(p *Process)) *Process {
	return par.shards[0].Spawn(name, delay, fn)
}

// Pending reports queued events across all shards.
func (par *Parallel) Pending() int {
	n := 0
	for _, s := range par.shards {
		n += s.q.n
	}
	return n
}

// LiveProcesses reports live processes across all shards.
func (par *Parallel) LiveProcesses() int {
	n := 0
	for _, s := range par.shards {
		n += s.pool.live
	}
	return n
}

// Stop makes Run return at the next shard event boundary. Unlike the
// sequential kernel, shards may stop at slightly different points within the
// current window, so Stop is for abandoning a run (followed by Shutdown),
// not for deterministic pause/resume.
func (par *Parallel) Stop() { par.stopped.Store(true) }

// Shutdown terminates the shard workers, waiting until each has left its
// loop, and stops every shard's process carriers (see
// Sequential.Shutdown). The engine must not be used afterwards.
func (par *Parallel) Shutdown() {
	if par.shutdown {
		return
	}
	par.shutdown = true
	if par.started {
		for _, s := range par.shards {
			close(s.windowCh)
		}
		for range par.shards {
			<-par.doneCh
		}
	}
	for _, s := range par.shards {
		s.pool.shutdown()
	}
}

// Run executes events until every shard drains.
func (par *Parallel) Run() error { return par.RunUntil(^Time(0)) }

// RunUntil executes events with timestamps <= deadline, window by window.
func (par *Parallel) RunUntil(deadline Time) error {
	if par.running {
		panic("sim: re-entrant Run")
	}
	par.running = true
	defer func() { par.running = false }()
	if !par.started {
		par.started = true
		for _, s := range par.shards {
			go s.work()
		}
	}
	for !par.stopped.Load() {
		start := ^Time(0)
		for _, s := range par.shards {
			start = min(start, s.q.nextAt())
		}
		if start == ^Time(0) {
			break // drained
		}
		if start > deadline {
			return ErrDeadline
		}
		end := start + par.window
		if par.window == 0 || end < start {
			end = ^Time(0)
		}
		if deadline < ^Time(0) && end > deadline+1 {
			end = deadline + 1
		}
		launched := 0
		for _, s := range par.shards {
			if s.q.nextAt() < end {
				s.windowCh <- end
				launched++
			}
		}
		for i := 0; i < launched; i++ {
			<-par.doneCh
		}
		for _, s := range par.shards {
			if s.now > par.now {
				par.now = s.now
			}
		}
		par.boundary()
	}
	par.syncClocks()
	if procs := par.LiveProcesses(); procs > 0 && !par.stopped.Load() {
		return &ErrDeadlock{At: par.now, Procs: procs}
	}
	return nil
}

// syncClocks aligns every shard clock with the global clock, so events
// scheduled between runs (phase attachments, quiescence wakeups) stamp the
// same time the sequential kernel would use.
func (par *Parallel) syncClocks() {
	for _, s := range par.shards {
		if s.now < par.now {
			s.now = par.now
		}
	}
}

// boundary is the window-merge step: rank the window's pushes into the exact
// sequential push order, assign global sequences, flush staged trace
// records, and deliver cross-shard events.
func (par *Parallel) boundary() {
	par.refs = par.refs[:0]
	for _, s := range par.shards {
		for i := range s.pushLog {
			par.refs = append(par.refs, recRef{shard: s.id, idx: int32(i)})
		}
	}
	rec := func(r recRef) *pushRec { return &par.shards[r.shard].pushLog[r.idx] }
	// Rank by pusher execution time first: Sequential performs pushes in the
	// order pushing events execute, i.e. (time, sequence) over pushers.
	slices.SortStableFunc(par.refs, func(a, b recRef) int {
		return cmp.Compare(rec(a).pusherAt, rec(b).pusherAt)
	})
	for lo := 0; lo < len(par.refs); {
		hi := lo
		at := rec(par.refs[lo]).pusherAt
		for hi < len(par.refs) && rec(par.refs[hi]).pusherAt == at {
			hi++
		}
		// Within one pusher timestamp, resolve in dependency rounds: a
		// pusher that gained its sequence this window (a zero-delay chain)
		// ranks by that assignment, which an earlier round produced.
		remaining := par.refs[lo:hi]
		for len(remaining) > 0 {
			par.ready = par.ready[:0]
			rest := remaining[:0]
			for _, r := range remaining {
				pr := rec(r)
				if pr.pusherSeq == 0 {
					if ps := par.shards[r.shard].pushLog[pr.pusherLoc].seq; ps != 0 {
						pr.pusherSeq = ps
					}
				}
				if pr.pusherSeq != 0 {
					par.ready = append(par.ready, r)
				} else {
					rest = append(rest, r)
				}
			}
			if len(par.ready) == 0 {
				panic("sim: parallel boundary ranking stuck (lineage cycle)")
			}
			slices.SortStableFunc(par.ready, func(ri, rj recRef) int {
				if c := cmp.Compare(rec(ri).pusherSeq, rec(rj).pusherSeq); c != 0 {
					return c
				}
				return cmp.Compare(ri.idx, rj.idx) // same pusher: log order = push order
			})
			for _, r := range par.ready {
				pr := rec(r)
				par.seq++
				pr.seq = par.seq
				if pr.slot >= 0 && !pr.executed {
					ev := &par.shards[pr.src].q.arena[pr.slot]
					ev.seq = pr.seq
					ev.local = -1
				}
			}
			remaining = rest
		}
		lo = hi
	}
	// Flush staged trace records in global event-execution order.
	if par.sink != nil {
		par.emits = par.emits[:0]
		for _, s := range par.shards {
			for i := range s.emits {
				em := &s.emits[i]
				if em.seq == 0 {
					em.seq = s.pushLog[em.local].seq
				}
				par.emits = append(par.emits, *em)
			}
			s.emits = s.emits[:0]
		}
		slices.SortStableFunc(par.emits, func(a, b emission) int {
			if c := cmp.Compare(a.at, b.at); c != 0 {
				return c
			}
			if c := cmp.Compare(a.seq, b.seq); c != 0 {
				return c
			}
			return cmp.Compare(a.n, b.n)
		})
		for i := range par.emits {
			em := &par.emits[i]
			par.sink(em.cycle, em.kind, em.what)
		}
	} else {
		for _, s := range par.shards {
			s.emits = s.emits[:0]
		}
	}
	// Deliver cross-shard events, now that every record carries its rank.
	for _, s := range par.shards {
		for i := range s.pushLog {
			pr := &s.pushLog[i]
			if pr.slot < 0 {
				par.shards[pr.dst].q.push(pr.at, pr.seq, -1, pr.fn, pr.call, pr.arg)
			}
			*pr = pushRec{}
		}
		s.pushLog = s.pushLog[:0]
	}
}

// --- shard: the per-partition kernel ----------------------------------------

// work is the shard's worker loop: execute one window per message until
// Shutdown closes the channel, then check out with one last done.
func (s *shard) work() {
	for end := range s.windowCh {
		s.runWindow(end)
		s.par.doneCh <- struct{}{}
	}
	s.par.doneCh <- struct{}{}
}

// runWindow dispatches this shard's events with timestamps below end.
func (s *shard) runWindow(end Time) {
	s.end = end
	for s.q.n > 0 && !s.par.stopped.Load() {
		id := s.q.peek()
		ev := &s.q.arena[id]
		if ev.at >= end {
			break
		}
		if ev.at < s.now {
			panic("sim: time went backwards")
		}
		s.now = ev.at
		s.curAt, s.curSeq, s.curLocal = ev.at, ev.seq, ev.local
		s.emitCnt = 0
		s.inEvent = true
		if ev.local >= 0 {
			s.pushLog[ev.local].executed = true
		}
		fn, call, arg := ev.fn, ev.call, ev.arg
		s.q.pop(id)
		s.executed++
		if fn != nil {
			fn()
		} else {
			call(arg)
		}
	}
	s.inEvent = false
	s.curLocal = -1
}

// push is the common scheduling entry: during a window it stages lineage in
// the push log; outside one (setup, phase attachment, quiescence wakeups)
// the coordinator's counter assigns the global sequence immediately, which
// is exactly when the sequential kernel would assign it.
func (s *shard) push(at Time, fn func(), call func(any), arg any) {
	if !s.inEvent {
		s.par.seq++ //lint:coordinator-context — no window is running, the caller is setup/phase code
		s.q.push(at, s.par.seq, -1, fn, call, arg)
		return
	}
	s.pushLog = append(s.pushLog, pushRec{
		at: at, src: s.id, dst: s.id,
		pusherAt: s.curAt, pusherSeq: s.curSeq, pusherLoc: s.curLocal,
	})
	recIdx := int32(len(s.pushLog) - 1)
	s.pushLog[recIdx].slot = s.q.push(at, 0, recIdx, fn, call, arg)
}

// pushCross stages an event for another shard; it is delivered at the next
// window boundary. The conservative lookahead contract requires the delivery
// to land at or beyond the current window's end.
func (s *shard) pushCross(dst int32, at Time, call func(any), arg any) {
	if !s.inEvent {
		s.par.seq++ //lint:coordinator-context — no window is running, the caller is setup/phase code
		s.par.shards[dst].q.push(at, s.par.seq, -1, nil, call, arg)
		return
	}
	if at < s.end {
		panic("sim: cross-shard delivery below the lookahead window")
	}
	s.pushLog = append(s.pushLog, pushRec{
		at: at, src: s.id, dst: dst, slot: -1,
		pusherAt: s.curAt, pusherSeq: s.curSeq, pusherLoc: s.curLocal,
		call: call, arg: arg,
	})
}

// Now returns the shard clock.
func (s *shard) Now() Time { return s.now }

// Executed reports this shard's dispatch count.
func (s *shard) Executed() uint64 { return s.executed }

// Schedule implements Engine on the shard view.
func (s *shard) Schedule(delay Time, fn func()) {
	if fn == nil {
		panic("sim: Schedule with nil fn")
	}
	s.push(s.now+delay, fn, nil, nil)
}

// ScheduleCall implements Engine on the shard view.
func (s *shard) ScheduleCall(delay Time, call func(any), arg any) {
	if call == nil {
		panic("sim: ScheduleCall with nil call")
	}
	s.push(s.now+delay, nil, call, arg)
}

// ScheduleCallNode implements Engine on the shard view: same-shard targets
// stay local, others are staged for boundary delivery.
func (s *shard) ScheduleCallNode(node int, delay Time, call func(any), arg any) {
	if call == nil {
		panic("sim: ScheduleCallNode with nil call")
	}
	dst := s.par.nodeShard[node]
	if dst == s.id {
		s.push(s.now+delay, nil, call, arg)
		return
	}
	s.pushCross(dst, s.now+delay, call, arg)
}

// Spawn implements Engine on the shard view: the process is pinned here.
func (s *shard) Spawn(name string, delay Time, fn func(p *Process)) *Process {
	return spawn(s, &s.pool, name, delay, fn)
}

// ForNode implements Engine: views hand out sibling views.
func (s *shard) ForNode(node int) Engine { return s.par.ForNode(node) }

// NumShards implements Engine.
func (s *shard) NumShards() int { return len(s.par.shards) }

// NodeShard implements Engine.
func (s *shard) NodeShard(node int) int { return s.par.NodeShard(node) }

// Emit implements Engine: records are staged with the executing event's
// lineage and flushed in global order at the boundary.
func (s *shard) Emit(cycle uint64, kind, what string) {
	if !s.inEvent {
		s.par.Emit(cycle, kind, what)
		return
	}
	s.emits = append(s.emits, emission{
		at: s.curAt, seq: s.curSeq, local: s.curLocal, n: s.emitCnt,
		cycle: cycle, kind: kind, what: what,
	})
	s.emitCnt++
}

// SetEmitSink implements Engine (one sink for the whole engine).
func (s *shard) SetEmitSink(sink func(cycle uint64, kind, what string)) { s.par.SetEmitSink(sink) }

// Run and friends only make sense on the coordinator.
func (s *shard) Run() error                   { panic("sim: Run on a shard view") }
func (s *shard) RunUntil(deadline Time) error { panic("sim: RunUntil on a shard view") }
func (s *shard) Pending() int                 { return s.par.Pending() }
func (s *shard) LiveProcesses() int           { return s.par.LiveProcesses() }
func (s *shard) Stop()                        { s.par.Stop() }
func (s *shard) Shutdown()                    { panic("sim: Shutdown on a shard view") }

// --- scheduler (process support) --------------------------------------------

func (s *shard) schedCall(delay Time, call func(any), arg any) {
	s.ScheduleCall(delay, call, arg)
}

func (s *shard) clock() Time { return s.now }

// runAhead is Sequential.runAhead bounded by the window end, which never
// passes RunUntil's deadline: below it, no other shard's push can land.
// The skipped wake is logged as an executed local push and becomes the
// current lineage, so the boundary ranks it, and the process's later
// pushes and Emit records, as if it had been queued and dispatched. Its
// record keeps slot 0, which is never read once executed: slot -1 would
// make the boundary deliver it as a cross-shard event.
func (s *shard) runAhead(d Time) bool {
	at := s.now + d
	if at >= s.end || s.par.stopped.Load() || !s.q.runAhead(at) {
		return false
	}
	s.pushLog = append(s.pushLog, pushRec{
		at: at, src: s.id, dst: s.id, executed: true,
		pusherAt: s.curAt, pusherSeq: s.curSeq, pusherLoc: s.curLocal,
	})
	s.now = at
	s.curAt, s.curSeq, s.curLocal = at, 0, int32(len(s.pushLog)-1)
	s.emitCnt = 0
	s.executed++
	return true
}
