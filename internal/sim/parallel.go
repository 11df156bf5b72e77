package sim

import "sync/atomic"

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
// At each boundary the coordinator ranks the window's pushes in the order
// Sequential would have performed them, which is the order pushing events
// execute: (pusher time, pusher sequence, push index). It does so with one
// k-way merge of the shards' push logs, each of which is already in that
// order. A shard dispatches in (time, sequence, local) order, so along its
// log the pusher time never decreases; within one pusher time, pushers that
// carried a sequence ran first, in sequence order, and pushers pushed this
// window ran in log order, which the merge turns into increasing sequences.
// An in-window pusher's own record sits earlier in the same log, so it is
// ranked before any record it pushed reaches the head, and the head resolves
// its pusher sequence from it. Two shards never share a key, since a pusher
// sequence names one event. The merge panics if its output ever steps back
// in (pusher time, pusher sequence): that happens exactly when some log is
// out of rank order.
//
// One monotone counter assigns the merged records their global sequences.
// The assignment never reorders a live queue (assigned-before-unassigned
// and local push order are both preserved by construction). Cross-shard
// messages are then delivered from each shard's cross list, and staged
// trace records are flushed to the sink by a second merge, in (time,
// sequence) order. A push-log record holds no pointers, so the garbage
// collector never scans the log and a boundary resets it by reslicing; the
// callbacks of cross-shard messages live in the cross list, which is
// cleared after delivery.
type Parallel struct {
	nodeShard []int32
	window    Time // lookahead width
	shards    []*shard
	seq       uint64 // global order counter: setup pushes + boundary ranking
	now       Time   // global clock: latest executed event time
	sink      func(cycle uint64, kind, what string)
	windows   uint64 // boundaries run
	ranked    uint64 // push records those boundaries ranked
	running   bool
	started   bool
	shutdown  bool
	stopped   atomic.Bool
	doneCh    chan struct{}
}

// pushRec logs one push performed during a window: the pusher's lineage,
// enough to rank the push exactly where Sequential would have made it. The
// worker writes it and the boundary only reads it; the sequence the
// boundary assigns goes to the shard's seqs instead.
type pushRec struct {
	pusherAt  Time
	pusherSeq uint64 // 0: pusher itself was pushed this window
	slot      int32  // arena slot of a still-queued local push; -1 otherwise
	pusherLoc int32  // pusher's push-log index when pusherSeq == 0
}

// crossRec is the payload of a cross-shard push, delivered at the boundary
// with the sequence its push-log record rec was ranked.
type crossRec struct {
	at   Time
	dst  int32
	rec  int32
	call func(any)
	arg  any
}

// emission is one staged trace record, keyed by the emitting event.
type emission struct {
	at    Time
	seq   uint64
	local int32
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
	cross    []crossRec
	emits    []emission
	next     int // boundary merge cursor into pushLog, then emits
	// seqs[i] is the global sequence the boundary ranked pushLog[i]. Only
	// the coordinator writes it, so ranking a window rewrites no cache
	// line the worker filled.
	seqs []uint64
	// lineage of the currently executing event
	curAt    Time
	curSeq   uint64
	curLocal int32
	inEvent  bool
	windowCh chan Time
}

// NewParallel returns a parallel engine over shards partitions. nodeShard
// maps every node to its owning shard (values in [0, shards)); window is the
// conservative lookahead width in cycles — the minimum latency of any
// cross-shard message. One partition is the sequential kernel's job, so
// NewParallel needs at least two shards and a positive window.
func NewParallel(shards int, nodeShard []int, window Time) *Parallel {
	if shards < 2 || window == 0 {
		panic("sim: NewParallel needs at least two shards and a positive lookahead window")
	}
	par := &Parallel{
		window:    window,
		nodeShard: make([]int32, len(nodeShard)),
		doneCh:    make(chan struct{}),
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

// Windows reports the window boundaries run so far.
func (par *Parallel) Windows() uint64 { return par.windows }

// RankedPushes reports the push records those boundaries ranked.
func (par *Parallel) RankedPushes() uint64 { return par.ranked }

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

// ScheduleCall implements Engine for setup context: the event lands on
// shard 0. Components must schedule through their shard views instead.
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
	var err error
	for !par.stopped.Load() {
		start := ^Time(0)
		for _, s := range par.shards {
			start = min(start, s.q.nextAt())
		}
		if start == ^Time(0) {
			break // drained
		}
		if start > deadline {
			err = ErrDeadline
			break
		}
		end := start + par.window
		if end < start {
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
	if err != nil {
		return err
	}
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
// sequential push order, assign global sequences, deliver cross-shard
// events, and flush staged trace records.
func (par *Parallel) boundary() {
	par.windows++
	// Rank: merge the push logs by (pusher time, pusher sequence), each
	// head resolving an in-window pusher's sequence (see Parallel).
	var lastAt Time
	var lastSeq uint64
	for {
		var from *shard
		var at Time
		var seq uint64
		for _, s := range par.shards {
			if s.next == len(s.pushLog) {
				continue
			}
			h := &s.pushLog[s.next]
			hs := h.pusherSeq
			if hs == 0 {
				if int(h.pusherLoc) >= len(s.seqs) {
					panic("sim: parallel boundary ranking stuck (lineage cycle)")
				}
				hs = s.seqs[h.pusherLoc]
			}
			if from == nil || h.pusherAt < at || h.pusherAt == at && hs < seq {
				from, at, seq = s, h.pusherAt, hs
			}
		}
		if from == nil {
			break
		}
		if at < lastAt || at == lastAt && seq < lastSeq {
			panic("sim: parallel push log out of rank order")
		}
		lastAt, lastSeq = at, seq
		par.seq++
		from.seqs = append(from.seqs, par.seq)
		if slot := from.pushLog[from.next].slot; slot >= 0 {
			ev := &from.q.arena[slot]
			ev.seq, ev.local = par.seq, -1
		}
		from.next++
	}
	// Deliver cross-shard events, now that every record carries its rank.
	for _, s := range par.shards {
		par.ranked += uint64(len(s.pushLog))
		s.next = 0
		for _, c := range s.cross {
			par.shards[c.dst].q.push(c.at, s.seqs[c.rec], -1, c.call, c.arg)
		}
		clear(s.cross)
		s.cross = s.cross[:0]
	}
	// Flush staged trace records in global event-execution order: each
	// shard staged its own in execution order, and two shards never share
	// an event's (time, sequence).
	for par.sink != nil {
		var from *shard
		var at Time
		var seq uint64
		for _, s := range par.shards {
			if s.next == len(s.emits) {
				continue
			}
			h := &s.emits[s.next]
			hs := h.seq
			if hs == 0 {
				hs = s.seqs[h.local]
			}
			if from == nil || h.at < at || h.at == at && hs < seq {
				from, at, seq = s, h.at, hs
			}
		}
		if from == nil {
			break
		}
		em := &from.emits[from.next]
		par.sink(em.cycle, em.kind, em.what)
		from.next++
	}
	for _, s := range par.shards {
		s.pushLog = s.pushLog[:0]
		s.seqs = s.seqs[:0]
		s.emits = s.emits[:0]
		s.next = 0
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
		s.inEvent = true
		if ev.local >= 0 {
			s.pushLog[ev.local].slot = -1
		}
		call, arg := ev.call, ev.arg
		s.q.pop(id)
		s.executed++
		call(arg)
	}
	s.inEvent = false
	s.curLocal = -1
}

// push is the common scheduling entry: during a window it stages lineage in
// the push log; outside one (setup, phase attachment, quiescence wakeups)
// the coordinator's counter assigns the global sequence immediately, which
// is exactly when the sequential kernel would assign it.
func (s *shard) push(at Time, call func(any), arg any) {
	if !s.inEvent {
		s.par.seq++ //lint:coordinator-context — no window is running, the caller is setup/phase code
		s.q.push(at, s.par.seq, -1, call, arg)
		return
	}
	s.logPush(s.q.push(at, 0, int32(len(s.pushLog)), call, arg))
}

// pushCross stages an event for another shard; it is delivered at the next
// window boundary. The conservative lookahead contract requires the delivery
// to land at or beyond the current window's end.
func (s *shard) pushCross(dst int32, at Time, call func(any), arg any) {
	if !s.inEvent {
		s.par.seq++ //lint:coordinator-context — no window is running, the caller is setup/phase code
		s.par.shards[dst].q.push(at, s.par.seq, -1, call, arg)
		return
	}
	if at < s.end {
		panic("sim: cross-shard delivery below the lookahead window")
	}
	s.cross = append(s.cross, crossRec{at: at, dst: dst, rec: s.logPush(-1), call: call, arg: arg})
}

// logPush appends a push-log record with the executing event's lineage
// and returns its index.
func (s *shard) logPush(slot int32) int32 {
	s.pushLog = append(s.pushLog, pushRec{
		pusherAt: s.curAt, pusherSeq: s.curSeq, pusherLoc: s.curLocal, slot: slot,
	})
	return int32(len(s.pushLog) - 1)
}

// Now returns the shard clock.
func (s *shard) Now() Time { return s.now }

// Executed reports this shard's dispatch count.
func (s *shard) Executed() uint64 { return s.executed }

// ScheduleCall implements Engine on the shard view.
func (s *shard) ScheduleCall(delay Time, call func(any), arg any) {
	if call == nil {
		panic("sim: ScheduleCall with nil call")
	}
	s.push(s.now+delay, call, arg)
}

// ScheduleCallNode implements Engine on the shard view: same-shard targets
// stay local, others are staged for boundary delivery.
func (s *shard) ScheduleCallNode(node int, delay Time, call func(any), arg any) {
	if call == nil {
		panic("sim: ScheduleCallNode with nil call")
	}
	dst := s.par.nodeShard[node]
	if dst == s.id {
		s.push(s.now+delay, call, arg)
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
		at: s.curAt, seq: s.curSeq, local: s.curLocal,
		cycle: cycle, kind: kind, what: what,
	})
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
// The skipped wake is logged as an already dispatched local push and
// becomes the current lineage, so the boundary ranks it, and the process's
// later pushes and Emit records, as if it had been queued and dispatched.
func (s *shard) runAhead(d Time) bool {
	at := s.now + d
	if at >= s.end || s.par.stopped.Load() || !s.q.runAhead(at) {
		return false
	}
	rec := s.logPush(-1)
	s.now = at
	s.curAt, s.curSeq, s.curLocal = at, 0, rec
	s.executed++
	return true
}
