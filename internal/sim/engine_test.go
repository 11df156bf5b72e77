package sim

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"
)

// schedule runs fn at now+delay on v. It is how these tests schedule a
// closure: the kernels' one event form is a call and its argument, and
// here the argument is fn itself.
func schedule(v Engine, delay Time, fn func()) { v.ScheduleCall(delay, callFunc, fn) }

// callFunc runs its argument, a func().
func callFunc(fn any) { fn.(func())() }

func TestScheduleOrdering(t *testing.T) {
	e := NewSequential()
	var got []int
	schedule(e, 10, func() { got = append(got, 2) })
	schedule(e, 5, func() { got = append(got, 1) })
	schedule(e, 10, func() { got = append(got, 3) }) // same time: FIFO by seq
	schedule(e, 20, func() { got = append(got, 4) })
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	want := []int{1, 2, 3, 4}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
	if e.Now() != 20 {
		t.Fatalf("Now = %d, want 20", e.Now())
	}
}

// TestScheduleNilPanics: every kernel and view refuses a nil call where it
// is scheduled, not later where it would be dispatched.
func TestScheduleNilPanics(t *testing.T) {
	forKernels(t, func(t *testing.T, newEngine func() Engine) {
		e := newEngine()
		defer e.Shutdown()
		for _, v := range []Engine{e, e.ForNode(1)} {
			if recovered(func() { v.ScheduleCall(0, nil, nil) }) == nil {
				t.Errorf("%T: ScheduleCall with a nil call did not panic", v)
			}
			if recovered(func() { v.ScheduleCallNode(0, 0, nil, nil) }) == nil {
				t.Errorf("%T: ScheduleCallNode with a nil call did not panic", v)
			}
		}
		if n := e.Pending(); n != 0 {
			t.Fatalf("%d events queued after the refusals, want 0", n)
		}
	})
}

// NewParallel has no one-shard mode (one partition is the sequential
// kernel's job) and no unbounded window.
func TestNewParallelNeedsTwoShardsAndAWindow(t *testing.T) {
	for _, c := range []struct {
		shards int
		window Time
	}{{1, 4}, {2, 0}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewParallel(%d shards, window %d) did not panic", c.shards, c.window)
				}
			}()
			NewParallel(c.shards, make([]int, 2), c.window)
		}()
	}
}

func TestNestedScheduling(t *testing.T) {
	e := NewSequential()
	var fired []Time
	schedule(e, 1, func() {
		fired = append(fired, e.Now())
		schedule(e, 2, func() {
			fired = append(fired, e.Now())
			schedule(e, 0, func() { fired = append(fired, e.Now()) })
		})
	})
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	want := []Time{1, 3, 3}
	for i, w := range want {
		if fired[i] != w {
			t.Fatalf("fired = %v, want %v", fired, want)
		}
	}
}

func TestRunUntilDeadline(t *testing.T) {
	e := NewSequential()
	ran := 0
	schedule(e, 5, func() { ran++ })
	schedule(e, 50, func() { ran++ })
	err := e.RunUntil(10)
	if err != ErrDeadline {
		t.Fatalf("err = %v, want ErrDeadline", err)
	}
	if ran != 1 {
		t.Fatalf("ran = %d, want 1", ran)
	}
	if err := e.RunUntil(100); err != nil {
		t.Fatalf("second RunUntil: %v", err)
	}
	if ran != 2 {
		t.Fatalf("ran = %d, want 2", ran)
	}
}

// TestRunUntilDeadlineSyncsClocks: when RunUntil stops at its deadline,
// every view's clock reads the time of the last event run, so an event
// scheduled between runs through a view that ran nothing late lands where
// the sequential kernel puts it, not in that view's past.
func TestRunUntilDeadlineSyncsClocks(t *testing.T) {
	forKernels(t, func(t *testing.T, newEngine func() Engine) {
		e := newEngine()
		defer e.Shutdown()
		var fired [2][]Time
		record := func(node int) func() {
			return func() { fired[node] = append(fired[node], e.ForNode(node).Now()) }
		}
		schedule(e.ForNode(1), 10, record(1))
		schedule(e.ForNode(0), 50, record(0))
		schedule(e.ForNode(0), 500, record(0))
		if err := e.RunUntil(100); err != ErrDeadline {
			t.Fatalf("RunUntil(100) = %v, want ErrDeadline", err)
		}
		if now := e.ForNode(1).Now(); now != 50 {
			t.Fatalf("node 1 clock after RunUntil(100) = %d, want 50", now)
		}
		schedule(e.ForNode(1), 5, record(1))
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		if got, want := fmt.Sprint(fired), "[[50 500] [10 55]]"; got != want {
			t.Fatalf("fired = %v, want %v", fired, want)
		}
	})
}

// kernels are the engines every Process and Shutdown test runs on: the
// sequential kernel and two- and three-shard parallel kernels, one node per
// shard. On a parallel kernel Spawn and ScheduleCall land on shard 0, so
// tests whose processes share host state keep them there; the others
// spread processes over shards with ForNode.
var kernels = []struct {
	name string
	new  func() Engine
}{
	{"sequential", func() Engine { return NewSequential() }},
	{"parallel-2", func() Engine { return NewParallel(2, []int{0, 1}, 4) }},
	{"parallel-3", func() Engine { return NewParallel(3, []int{0, 1, 2}, 4) }},
}

// forKernels runs f once per kernel as a subtest; newEngine builds a fresh
// engine of that kind.
func forKernels(t *testing.T, f func(t *testing.T, newEngine func() Engine)) {
	t.Helper()
	for _, k := range kernels {
		t.Run(k.name, func(t *testing.T) { f(t, k.new) })
	}
}

func TestProcessSleepAdvancesTime(t *testing.T) {
	forKernels(t, func(t *testing.T, newEngine func() Engine) {
		e := newEngine()
		defer e.Shutdown()
		var wake Time
		e.ForNode(1).Spawn("sleeper", 3, func(p *Process) {
			p.Sleep(7)
			wake = p.Now()
		})
		if err := e.Run(); err != nil {
			t.Fatalf("Run: %v", err)
		}
		if wake != 10 {
			t.Fatalf("woke at %d, want 10", wake)
		}
		if e.LiveProcesses() != 0 {
			t.Fatalf("LiveProcesses = %d, want 0", e.LiveProcesses())
		}
	})
}

// TestProcessRunAheadStopsAtDeadline pins run-ahead's deadline guard: a
// lone process sleeping in a loop stops at RunUntil's deadline with its
// next wake queued, and resumes at the same cycles. Its sleeps of 3 stay
// below the parallel-2 kernel's window of 4, so both kernels run sleeps
// ahead.
func TestProcessRunAheadStopsAtDeadline(t *testing.T) {
	forKernels(t, func(t *testing.T, newEngine func() Engine) {
		e := newEngine()
		defer e.Shutdown()
		const sleeps = 50
		var woke []Time
		e.ForNode(1).Spawn("sleeper", 2, func(p *Process) {
			for i := 0; i < sleeps; i++ {
				woke = append(woke, p.Now())
				p.Sleep(3)
			}
		})
		if err := e.RunUntil(100); err != ErrDeadline {
			t.Fatalf("RunUntil(100) = %v, want ErrDeadline", err)
		}
		if now, pending := e.Now(), e.Pending(); now != 98 || pending != 1 {
			t.Fatalf("at the deadline: Now = %d, Pending = %d; want 98 and 1 (the wake at 101)", now, pending)
		}
		if err := e.Run(); err != nil {
			t.Fatalf("Run: %v", err)
		}
		if len(woke) != sleeps {
			t.Fatalf("woke %d times, want %d", len(woke), sleeps)
		}
		for i, at := range woke {
			if want := 2 + 3*Time(i); at != want {
				t.Fatalf("wake %d at cycle %d, want %d", i, at, want)
			}
		}
	})
}

// TestProcessRunAheadAfterStop pins run-ahead's Stop guard: a process that
// calls Stop and then sleeps leaves its wake queued, and Run returns
// without resuming it.
func TestProcessRunAheadAfterStop(t *testing.T) {
	forKernels(t, func(t *testing.T, newEngine func() Engine) {
		e := newEngine()
		defer e.Shutdown()
		resumed := false
		e.ForNode(1).Spawn("stopper", 0, func(p *Process) {
			p.Sleep(1)
			e.Stop()
			p.Sleep(1)
			resumed = true
		})
		if err := e.Run(); err != nil {
			t.Fatalf("Run: %v", err)
		}
		if resumed {
			t.Fatal("the sleep after Stop returned")
		}
		if now, pending := e.Now(), e.Pending(); now != 1 || pending != 1 {
			t.Fatalf("after Stop: Now = %d, Pending = %d; want 1 and 1", now, pending)
		}
	})
}

// TestProcessRunAheadCountsWakes pins that a wake run ahead counts as a
// dispatched event: a lone process that sleeps n times costs n+1 events,
// its start and n wakes, as parked sleeps do. A Sleep(0) with nothing else
// due returns at the same cycle.
func TestProcessRunAheadCountsWakes(t *testing.T) {
	forKernels(t, func(t *testing.T, newEngine func() Engine) {
		e := newEngine()
		defer e.Shutdown()
		const sleeps = 40
		var end Time
		e.ForNode(1).Spawn("sleeper", 5, func(p *Process) {
			p.Sleep(0)
			if now := p.Now(); now != 5 {
				t.Errorf("Sleep(0) at cycle 5 returned at %d", now)
			}
			for i := 1; i < sleeps; i++ {
				p.Sleep(Time(i % 4))
			}
			end = p.Now()
		})
		if err := e.Run(); err != nil {
			t.Fatalf("Run: %v", err)
		}
		if got := e.Executed(); got != sleeps+1 {
			t.Fatalf("Executed = %d, want %d", got, sleeps+1)
		}
		if end != 65 {
			t.Fatalf("last wake at cycle %d, want 65", end)
		}
	})
}

// TestProcessRunAheadYieldsOnTie pins run-ahead's tie rule: an event due at
// the wake's own cycle was pushed first, so it runs first and the sleep
// parks. A Sleep(0) and a Sleep(3) each find a handler due at their wake.
func TestProcessRunAheadYieldsOnTie(t *testing.T) {
	forKernels(t, func(t *testing.T, newEngine func() Engine) {
		e := newEngine()
		defer e.Shutdown()
		v := e.ForNode(1)
		var got []string
		v.Spawn("sleeper", 5, func(p *Process) {
			p.Sleep(0)
			got = append(got, fmt.Sprint("wake ", p.Now()))
			p.Sleep(3)
			got = append(got, fmt.Sprint("wake ", p.Now()))
		})
		schedule(v, 5, func() { got = append(got, "handler 5") })
		schedule(v, 8, func() { got = append(got, "handler 8") })
		if err := e.Run(); err != nil {
			t.Fatalf("Run: %v", err)
		}
		if s, want := fmt.Sprint(got), "[handler 5 wake 5 handler 8 wake 8]"; s != want {
			t.Fatalf("order %s, want %s", s, want)
		}
	})
}

func TestProcessesInterleaveDeterministically(t *testing.T) {
	forKernels(t, func(t *testing.T, newEngine func() Engine) {
		run := func() []string {
			e := newEngine()
			defer e.Shutdown()
			var trace []string
			for i := 0; i < 4; i++ {
				name := string(rune('a' + i))
				e.Spawn(name, Time(i), func(p *Process) {
					for j := 0; j < 3; j++ {
						trace = append(trace, p.Name())
						p.Sleep(2)
					}
				})
			}
			if err := e.Run(); err != nil {
				t.Fatalf("Run: %v", err)
			}
			return trace
		}
		first := run()
		for trial := 0; trial < 5; trial++ {
			if got := run(); len(got) != len(first) {
				t.Fatalf("nondeterministic trace length")
			} else {
				for i := range got {
					if got[i] != first[i] {
						t.Fatalf("nondeterministic trace at %d: %v vs %v", i, got, first)
					}
				}
			}
		}
	})
}

func TestDeadlockDetection(t *testing.T) {
	forKernels(t, func(t *testing.T, newEngine func() Engine) {
		e := newEngine()
		e.Spawn("stuck", 0, func(p *Process) { p.Suspend() })
		err := e.Run()
		dl, ok := err.(*ErrDeadlock)
		if !ok {
			t.Fatalf("err = %v, want *ErrDeadlock", err)
		}
		if dl.Procs != 1 {
			t.Fatalf("Procs = %d, want 1", dl.Procs)
		}
		e.Shutdown() // must unwind the parked process without hanging
	})
}

// TestProcessResumeFromHandler: a handler that resumes a suspended process
// is that process's dispatch. The process runs inside the handler, at its
// time, before the next event due at the same cycle, and what it pushes
// sorts as that handler's pushes do; its next sleep starts from there.
func TestProcessResumeFromHandler(t *testing.T) {
	forKernels(t, func(t *testing.T, newEngine func() Engine) {
		e := newEngine()
		defer e.Shutdown()
		v := e.ForNode(1)
		var order []string
		var p *Process
		p = v.Spawn("suspended", 0, func(p *Process) {
			p.Suspend()
			order = append(order, fmt.Sprintf("process@%d", p.Now()))
			schedule(v, 0, func() { order = append(order, "pushed by process") })
			p.Sleep(5)
			order = append(order, fmt.Sprintf("woke@%d", p.Now()))
		})
		schedule(v, 42, func() {
			order = append(order, "resumer")
			p.Resume()
		})
		schedule(v, 42, func() { order = append(order, "next at 42") })
		if err := e.Run(); err != nil {
			t.Fatalf("Run: %v", err)
		}
		want := "[resumer process@42 next at 42 pushed by process woke@47]"
		if got := fmt.Sprint(order); got != want {
			t.Fatalf("order = %s, want %s", got, want)
		}
		// Spawn dispatch, two handlers, the pushed one and the sleep's wake:
		// Resume adds no event of its own.
		if got := e.Executed(); got != 5 {
			t.Fatalf("Executed = %d, want 5", got)
		}
	})
}

// recovered runs f and returns what it panicked with, or nil.
func recovered(f func()) (r any) {
	defer func() { r = recover() }()
	f()
	return nil
}

// TestProcessResumePanicsUnlessSuspended: Resume refuses a process that is
// running or sleeping. Each refusal is recovered where it is raised, so the
// check runs on every kernel (a panic leaving a parallel shard's event ends
// the program), and the run then finishes normally.
func TestProcessResumePanicsUnlessSuspended(t *testing.T) {
	forKernels(t, func(t *testing.T, newEngine func() Engine) {
		e := newEngine()
		defer e.Shutdown()
		v := e.ForNode(1)
		var got []any
		v.Spawn("running", 0, func(p *Process) {
			got = append(got, recovered(p.Resume))
		})
		sleeper := v.Spawn("sleeping", 0, func(p *Process) { p.Sleep(100) })
		schedule(v, 10, func() {
			got = append(got, recovered(sleeper.Resume))
		})
		if err := e.Run(); err != nil {
			t.Fatalf("Run: %v", err)
		}
		want := []any{
			"sim: Resume of a process that is not suspended",
			"sim: Resume of a process that is not suspended",
		}
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("panics = %q, want %q", got, want)
		}
	})
}

// TestProcessSuspendDeadlockAndShutdown: a run whose only live processes
// are suspended ends in *ErrDeadlock, since no event can resume them, and
// Shutdown unwinds them without leaking their carriers.
func TestProcessSuspendDeadlockAndShutdown(t *testing.T) {
	forKernels(t, func(t *testing.T, newEngine func() Engine) {
		before := runtime.NumGoroutine()
		e := newEngine()
		unwound := 0
		for node := 0; node < 2; node++ {
			e.ForNode(node).Spawn("suspended", Time(node), func(p *Process) {
				defer func() { unwound++ }()
				p.Suspend()
				t.Error("suspended process ran past Suspend")
			})
		}
		dl, ok := e.Run().(*ErrDeadlock)
		if !ok || dl.Procs != 2 || dl.At != 1 {
			t.Fatalf("Run = %v, want a deadlock of 2 processes at cycle 1", dl)
		}
		e.Shutdown()
		if unwound != 2 {
			t.Fatalf("Shutdown unwound %d suspended processes, want 2", unwound)
		}
		deadline := time.Now().Add(2 * time.Second)
		for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
			runtime.Gosched()
		}
		if after := runtime.NumGoroutine(); after > before {
			t.Fatalf("goroutines: %d before, %d after Shutdown", before, after)
		}
	})
}

// TestShutdownReleasesCarriers pins what Shutdown owes the host: every
// carrier coroutine exits, whatever state its process is in. One process
// is never dispatched (its start lies past the deadline), one is suspended
// and never resumed, and one finished, leaving its carrier idle; each
// kernel shard gets all three.
func TestShutdownReleasesCarriers(t *testing.T) {
	forKernels(t, func(t *testing.T, newEngine func() Engine) {
		before := runtime.NumGoroutine()
		e := newEngine()
		for node := 0; node < 2; node++ {
			v := e.ForNode(node)
			v.Spawn("finished", 0, func(p *Process) { p.Sleep(1) })
			v.Spawn("parked", 0, func(p *Process) { p.Suspend() })
			v.Spawn("never", 1000, func(p *Process) { t.Error("process past the deadline ran") })
		}
		if err := e.RunUntil(100); err != ErrDeadline {
			t.Fatalf("RunUntil = %v, want ErrDeadline", err)
		}
		if got := e.LiveProcesses(); got != 4 {
			t.Fatalf("LiveProcesses = %d, want 4 (parked + never, per shard)", got)
		}
		e.Shutdown()
		// Shutdown returns once every carrier has exited and every shard
		// worker has left its loop; a worker may still be returning.
		deadline := time.Now().Add(2 * time.Second)
		for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
			runtime.Gosched()
		}
		if after := runtime.NumGoroutine(); after > before {
			t.Fatalf("goroutines: %d before, %d after Shutdown", before, after)
		}
	})
}

// TestProcessPanicReachesRun pins panic semantics: a panic inside a
// process, other than Shutdown's own unwinding sentinel, reaches the caller
// of Run with its original value, and Shutdown afterwards still returns.
func TestProcessPanicReachesRun(t *testing.T) {
	type boom struct{ at Time }
	e := NewSequential()
	e.Spawn("parked", 0, func(p *Process) { p.Suspend() })
	e.Spawn("panicker", 5, func(p *Process) { panic(boom{at: p.Now()}) })
	func() {
		defer func() {
			if r := recover(); r != (boom{at: 5}) {
				t.Fatalf("Run panicked with %v, want boom{at: 5}", r)
			}
		}()
		_ = e.Run()
		t.Fatal("Run returned instead of panicking")
	}()
	e.Shutdown() // a hang here fails the test by timeout
}

func TestStop(t *testing.T) {
	e := NewSequential()
	ran := 0
	schedule(e, 1, func() { ran++; e.Stop() })
	schedule(e, 2, func() { ran++ })
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if ran != 1 {
		t.Fatalf("ran = %d, want 1", ran)
	}
}

// Property: for any program of handler pushes and sleeping processes, the
// sequential kernel fires events in (time, push order), and the parallel
// kernels fire them in exactly the sequential order. A program has one
// node per shard, so on parallel-3 every boundary merges three logs.
// Programs push at delays on both sides of every wheel-span multiple up to
// 3x the span, in same-cycle bursts, and across shards onto cycles the
// target shard is filling from inside the same window. Their processes
// push handler events too, and sleep both below the lookahead, where a
// parallel shard can run the sleep ahead inside its window, and across
// window ends and the wheel span; the run is split by RunUntil deadlines.
func TestEventOrderProperty(t *testing.T) {
	forKernels(t, func(t *testing.T, newEngine func() Engine) {
		f := func(seed uint64) bool {
			eng := newEngine()
			n := max(2, eng.NumShards()) // one node per shard
			got, nodes := runOrderProgram(t, eng, n, seed)
			want, _ := runOrderProgram(t, NewSequential(), n, seed)
			for i := 1; i < len(want); i++ {
				a, b := want[i-1], want[i]
				if a.at > b.at || a.at == b.at && a.push >= b.push {
					t.Logf("seed %d: sequential fired %+v after %+v", seed, b, a)
					return false
				}
			}
			if !sameOrder(got, want) {
				t.Logf("seed %d: global order differs from sequential", seed)
				return false
			}
			for n := range nodes {
				var wantNode []orderRec
				for _, r := range want {
					if r.node == n {
						wantNode = append(wantNode, r)
					}
				}
				if !sameOrder(nodes[n], wantNode) {
					t.Logf("seed %d: node %d order differs from sequential", seed, n)
					return false
				}
			}
			return true
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
			t.Fatal(err)
		}
	})
}

// orderRec is one fired event or process step of an order program. push
// is the event's push index, or for a process step that of the Sleep or
// Spawn before it; it is the sequential kernel's push order, and
// meaningless on the parallel kernel, where shards push concurrently.
type orderRec struct {
	at    Time
	node  int
	label uint64
	push  uint64
}

// orderEv is one scheduled event of an order program, due at cycle due.
type orderEv struct {
	label uint64
	depth int
	node  int
	push  uint64
	due   Time
}

// orderDelays are the delays order programs push at most often: zero
// (same-cycle), the parallel lookahead and just past it, and both sides of
// every wheel-span multiple up to 3x the span, where a push moves between
// a bucket and the overflow heap.
var orderDelays = []Time{
	0, 0, 1, orderLookahead, orderLookahead + 1,
	wheelSpan - 1, wheelSpan, wheelSpan + 1,
	2*wheelSpan - 1, 2 * wheelSpan, 2*wheelSpan + 1,
	3*wheelSpan - 1, 3 * wheelSpan,
}

// orderLookahead is the parallel kernels' window (see kernels): the
// shortest legal cross-shard delay.
const orderLookahead = 4

// orderSleeps are the delays order-program processes sleep: zero and the
// delays below the lookahead, which a parallel shard may run ahead inside
// its window; the lookahead and just past it, which always cross a window
// end; and both sides of the wheel span.
var orderSleeps = []Time{
	0, 1, 2, orderLookahead - 1, orderLookahead, orderLookahead + 1,
	wheelSpan - 1, wheelSpan, wheelSpan + 1,
}

// orderProcSteps is how many records each order-program process emits.
const orderProcSteps = 24

// mix64 is the SplitMix64 finalizer: order programs derive every decision
// from event labels, so both kernels run the same program.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return x ^ x>>31
}

// runOrderProgram runs the order program for seed on n nodes of eng,
// split by RunUntil deadlines, and returns the fired events in global
// order (as the Emit sink received them) and in each node's own execution
// order. Every choice that picks among nodes is constant at n = 2, so the
// two-node programs are those of a program written for two nodes.
func runOrderProgram(t *testing.T, eng Engine, n int, seed uint64) (global []orderRec, nodes [][]orderRec) {
	t.Helper()
	defer eng.Shutdown()
	const maxDepth = 6
	nodes = make([][]orderRec, n)
	var pushes atomic.Uint64
	eng.SetEmitSink(func(cycle uint64, kind, what string) {
		r := orderRec{at: cycle}
		if _, err := fmt.Sscanf(what, "%d %x %d", &r.node, &r.label, &r.push); err != nil {
			t.Errorf("bad emission %q: %v", what, err)
		}
		global = append(global, r)
	})
	// record logs one fired event or process step on its node and emits it.
	record := func(node int, label, push uint64, due Time) Time {
		view := eng.ForNode(node)
		now := view.Now()
		if now != due {
			t.Errorf("record %x due at %d fired at %d", label, due, now)
		}
		nodes[node] = append(nodes[node], orderRec{at: now, node: node, label: label, push: push})
		view.Emit(now, "order", fmt.Sprintf("%d %x %d", node, label, push))
		return now
	}
	// target picks a push's node and delay from hc: mostly its own node,
	// and another node at the lookahead or later.
	target := func(node int, hc uint64) (int, Time) {
		delay := orderDelays[(hc>>8)%uint64(len(orderDelays))]
		if hc%4 == 0 {
			delay = Time(hc>>8) % (3*wheelSpan + 2)
		}
		if (hc>>40)%3 == 0 {
			return (node + 1 + int((hc>>44)%uint64(n-1))) % n, max(delay, orderLookahead)
		}
		return node, delay
	}
	var fire func(any)
	fire = func(a any) {
		ev := a.(*orderEv)
		view := eng.ForNode(ev.node)
		now := record(ev.node, ev.label, ev.push, ev.due)
		if ev.depth == maxDepth {
			return
		}
		h := mix64(ev.label)
		for c := uint64(0); c < h%4; c++ {
			hc := mix64(h + c + 1)
			node, delay := target(ev.node, hc)
			burst := uint64(1)
			if (hc>>48)%5 == 0 {
				burst += 1 + (hc>>52)%3
			}
			for k := uint64(0); k < burst; k++ {
				child := &orderEv{label: mix64(hc + k), depth: ev.depth + 1, node: node, push: pushes.Add(1), due: now + delay}
				if node != ev.node || (hc>>56)%2 == 0 {
					view.ScheduleCallNode(node, delay, fire, child)
				} else {
					view.ScheduleCall(delay, fire, child)
				}
			}
		}
	}
	roots := uint64(3 * n)
	for r := uint64(0); r < roots; r++ {
		node := int(r % uint64(n))
		due := Time(r / uint64(n))
		eng.ForNode(node).ScheduleCall(due, fire, &orderEv{label: mix64(seed + r), node: node, push: pushes.Add(1), due: due})
	}
	// Two sleeping processes per node. Each step records, pushes a handler
	// event two levels short of the depth limit, and sleeps; the next
	// step's push index is taken at that Sleep, where a parked sleep
	// pushes its wake.
	for r := uint64(0); r < uint64(2*n); r++ {
		node := int(r % uint64(n))
		label, push, due := mix64(seed+r+roots), pushes.Add(1), Time(r)
		eng.ForNode(node).Spawn("sleeper", due, func(p *Process) {
			view := eng.ForNode(node)
			for step := 0; ; step++ {
				now := record(node, label, push, due)
				if step == orderProcSteps {
					return
				}
				h := mix64(label)
				dst, delay := target(node, h)
				child := &orderEv{label: mix64(h + 1), depth: maxDepth - 2, node: dst, push: pushes.Add(1), due: now + delay}
				view.ScheduleCallNode(dst, delay, fire, child)
				sleep := orderSleeps[(h>>16)%uint64(len(orderSleeps))]
				label, push, due = mix64(h+2), pushes.Add(1), now+sleep
				p.Sleep(sleep)
			}
		})
	}
	step := 1 + Time(mix64(^seed)%(2*wheelSpan))
	for deadline := step; ; deadline += step {
		err := eng.RunUntil(deadline)
		if err == nil {
			break
		}
		if err != ErrDeadline {
			t.Fatalf("RunUntil(%d): %v", deadline, err)
		}
	}
	if int(pushes.Load()) != len(global) {
		t.Errorf("%d events pushed, %d fired", pushes.Load(), len(global))
	}
	return global, nodes
}

// sameOrder reports whether two runs fired the same events at the same
// times in the same order; push indices are not compared.
func sameOrder(a, b []orderRec) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].at != b[i].at || a[i].node != b[i].node || a[i].label != b[i].label {
			return false
		}
	}
	return true
}

// Property: sleeping processes accumulate exactly the requested cycles.
func TestProcessSleepAccumulationProperty(t *testing.T) {
	forKernels(t, func(t *testing.T, newEngine func() Engine) {
		f := func(seed int64, n uint8) bool {
			rng := rand.New(rand.NewSource(seed))
			e := newEngine()
			defer e.Shutdown()
			count := int(n%8) + 1
			got := make([]Time, count)
			want := make([]Time, count)
			for i := 0; i < count; i++ {
				var total Time
				sleeps := make([]Time, rng.Intn(10)+1)
				for j := range sleeps {
					sleeps[j] = Time(rng.Intn(100))
					total += sleeps[j]
				}
				start := Time(rng.Intn(50))
				want[i] = start + total
				e.ForNode(i%2).Spawn("p", start, func(p *Process) {
					for _, s := range sleeps {
						p.Sleep(s)
					}
					got[i] = p.Now()
				})
			}
			if err := e.Run(); err != nil {
				return false
			}
			for i := range want {
				if got[i] != want[i] {
					return false
				}
			}
			return true
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
			t.Fatal(err)
		}
	})
}

func TestShutdownIdempotent(t *testing.T) {
	forKernels(t, func(t *testing.T, newEngine func() Engine) {
		e := newEngine()
		e.Spawn("stuck", 0, func(p *Process) { p.Suspend() })
		_ = e.Run()
		e.Shutdown()
		e.Shutdown()
	})
}
