// Package sim provides a deterministic discrete-event simulation kernel.
//
// The kernel advances a virtual clock measured in CPU cycles and executes
// events in (time, sequence) order, so identical inputs always produce
// identical schedules. Two styles of simulated activity coexist:
//
//   - event handlers: a func(any) and its argument, scheduled with
//     Engine.ScheduleCall, used by hardware models (caches, directories,
//     network, AMU);
//   - processes: coroutines started with Engine.Spawn, used by simulated
//     CPUs running synchronization algorithms. A process may sleep for a
//     number of cycles or suspend until a handler resumes it; while it
//     runs, no other process or event handler runs on the same shard, so
//     simulated state needs no locking as long as every component touches
//     only its own node's state.
//
// Two kernels implement the Engine interface:
//
//   - Sequential (NewSequential): a single event queue — the
//     allocation-free hot path every small experiment runs on;
//   - Parallel (NewParallel): a conservative parallel kernel that partitions
//     nodes across shards and executes lookahead windows concurrently,
//     producing the exact event order of Sequential (see parallel.go).
//
// Both kernels share one event queue type (queue.go): a pooled event arena,
// per-cycle FIFO buckets for events due within a fixed span of the last
// dispatched one, and a binary heap for the rest and for the rare push that
// would not sort after its bucket's tail.
//
// Both kernels also run sleeps ahead: when a sleeping process's wake would
// be the next event dispatched anyway, Process.Sleep returns without
// parking, and the kernel advances its clock in place and counts the wake
// as dispatched. The event order, event counts and emitted records are
// those of a parked sleep; only the queue push, the pop and the two
// coroutine switches are skipped.
//
// Components bind to a node-affine view via ForNode: on Sequential the view
// is the engine itself; on Parallel it is the node's shard. All scheduling,
// clock reads and process spawns must go through the component's own view.
package sim

import (
	"fmt"
)

// Time is a point in simulated time, in CPU cycles.
type Time = uint64

// Engine is the discrete-event kernel contract shared by the Sequential and
// Parallel implementations (and by the per-node views the latter hands out).
//
// There is one event form: a call and its argument. The pooled-arena
// contract: the kernels never retain call/arg beyond dispatch, events live
// in recycled arenas, and scheduling a prebound func(any) (a package-level
// function or a func value built once) with a pointer argument must not
// heap-allocate.
type Engine interface {
	// Now returns the current simulated time of this view's clock. On a
	// parallel shard view the clock is the shard's local clock, which agrees
	// with the global clock at every window boundary and after Run returns.
	Now() Time
	// Executed reports the total number of events dispatched.
	Executed() uint64
	// ScheduleCall runs call(arg) at now+delay on this view's shard.
	// Events due at the same instant run in scheduling order.
	ScheduleCall(delay Time, call func(any), arg any)
	// ScheduleCallNode runs call(arg) at now+delay on node's shard. Cross-
	// shard deliveries require delay >= the engine's lookahead window.
	ScheduleCallNode(node int, delay Time, call func(any), arg any)
	// Spawn starts fn as a new process after delay cycles, pinned to this
	// view's shard. A panic inside fn is re-raised where the process was
	// dispatched: out of Run on Sequential, and in the shard's worker
	// goroutine (ending the program) on Parallel.
	Spawn(name string, delay Time, fn func(p *Process)) *Process
	// ForNode returns the node-affine view components on node must use.
	ForNode(node int) Engine
	// NumShards reports the shard count (1 for Sequential).
	NumShards() int
	// NodeShard reports which shard owns node (0 for Sequential).
	NodeShard(node int) int
	// Emit hands an ordered side-record (a trace line) to the engine,
	// attributed to the currently executing event. The installed sink
	// receives every record in global event-execution order.
	Emit(cycle uint64, kind, what string)
	// SetEmitSink installs the ordered-record consumer. Pass nil to disable.
	SetEmitSink(sink func(cycle uint64, kind, what string))
	// Run executes events until the queue drains; RunUntil bounds the run.
	Run() error
	RunUntil(deadline Time) error
	// Pending reports the number of queued events.
	Pending() int
	// LiveProcesses reports spawned processes that have not yet returned.
	LiveProcesses() int
	// Stop makes Run return after the current event; Shutdown stops every
	// process carrier, unwinding parked processes.
	Stop()
	Shutdown()
}

// ErrDeadlock is returned by Run when live processes remain but no event can
// ever wake them.
type ErrDeadlock struct {
	At    Time
	Procs int
}

func (err *ErrDeadlock) Error() string {
	return fmt.Sprintf("sim: deadlock at cycle %d: %d process(es) parked with no pending events", err.At, err.Procs)
}

// ErrDeadline is returned by RunUntil when the deadline passes with events
// still pending.
var ErrDeadline = fmt.Errorf("sim: deadline reached with pending events")
