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

func TestScheduleOrdering(t *testing.T) {
	e := NewEngine()
	var got []int
	e.Schedule(10, func() { got = append(got, 2) })
	e.Schedule(5, func() { got = append(got, 1) })
	e.Schedule(10, func() { got = append(got, 3) }) // same time: FIFO by seq
	e.Schedule(20, func() { got = append(got, 4) })
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

func TestScheduleNilPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for nil fn")
		}
	}()
	NewEngine().Schedule(0, nil)
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
	e := NewEngine()
	var fired []Time
	e.Schedule(1, func() {
		fired = append(fired, e.Now())
		e.Schedule(2, func() {
			fired = append(fired, e.Now())
			e.Schedule(0, func() { fired = append(fired, e.Now()) })
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
	e := NewEngine()
	ran := 0
	e.Schedule(5, func() { ran++ })
	e.Schedule(50, func() { ran++ })
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

// kernels are the engines every Process, Cond, Await and Shutdown test runs
// on: the sequential kernel and a two-shard parallel kernel. On the parallel
// kernel Spawn and Schedule land on shard 0, so tests whose processes share
// host state keep them there; the others spread processes over both shards
// with ForNode.
var kernels = []struct {
	name string
	new  func() Engine
}{
	{"sequential", func() Engine { return NewSequential() }},
	{"parallel-2", func() Engine { return NewParallel(2, []int{0, 1}, 4) }},
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
		v.Schedule(5, func() { got = append(got, "handler 5") })
		v.Schedule(8, func() { got = append(got, "handler 8") })
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

func TestCondBroadcastWakesAllWaiters(t *testing.T) {
	forKernels(t, func(t *testing.T, newEngine func() Engine) {
		e := newEngine()
		defer e.Shutdown()
		c := NewCond(e)
		woken := 0
		for i := 0; i < 10; i++ {
			e.Spawn("w", 0, func(p *Process) {
				c.Wait(p)
				woken++
			})
		}
		e.Spawn("b", 5, func(p *Process) {
			if c.Waiters() != 10 {
				t.Errorf("Waiters = %d, want 10", c.Waiters())
			}
			c.Broadcast()
		})
		if err := e.Run(); err != nil {
			t.Fatalf("Run: %v", err)
		}
		if woken != 10 {
			t.Fatalf("woken = %d, want 10", woken)
		}
	})
}

func TestCondWaitAfterBroadcastWaitsForNext(t *testing.T) {
	forKernels(t, func(t *testing.T, newEngine func() Engine) {
		e := newEngine()
		defer e.Shutdown()
		c := NewCond(e)
		var order []string
		e.Spawn("early", 0, func(p *Process) {
			c.Wait(p)
			order = append(order, "early")
		})
		e.Spawn("bcast1", 1, func(p *Process) { c.Broadcast() })
		e.Spawn("late", 2, func(p *Process) {
			c.Wait(p)
			order = append(order, "late")
		})
		e.Spawn("bcast2", 3, func(p *Process) { c.Broadcast() })
		if err := e.Run(); err != nil {
			t.Fatalf("Run: %v", err)
		}
		if len(order) != 2 || order[0] != "early" || order[1] != "late" {
			t.Fatalf("order = %v", order)
		}
	})
}

func TestDeadlockDetection(t *testing.T) {
	forKernels(t, func(t *testing.T, newEngine func() Engine) {
		e := newEngine()
		c := NewCond(e)
		e.Spawn("stuck", 0, func(p *Process) { c.Wait(p) })
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

func TestAwait(t *testing.T) {
	forKernels(t, func(t *testing.T, newEngine func() Engine) {
		e := newEngine()
		defer e.Shutdown()
		var wake func()
		var doneAt Time
		e.Spawn("waiter", 0, func(p *Process) {
			p.Await(func(w func()) { wake = w })
			doneAt = p.Now()
		})
		e.Schedule(42, func() { wake() })
		if err := e.Run(); err != nil {
			t.Fatalf("Run: %v", err)
		}
		if doneAt != 42 {
			t.Fatalf("doneAt = %d, want 42", doneAt)
		}
	})
}

// TestShutdownReleasesCarriers pins what Shutdown owes the host: every
// carrier coroutine exits, whatever state its process is in. One process
// is never dispatched (its start lies past the deadline), one is parked on
// a Cond that is never broadcast, and one finished, leaving its carrier
// idle; each kernel shard gets all three.
func TestShutdownReleasesCarriers(t *testing.T) {
	forKernels(t, func(t *testing.T, newEngine func() Engine) {
		before := runtime.NumGoroutine()
		e := newEngine()
		for node := 0; node < 2; node++ {
			v := e.ForNode(node)
			c := NewCond(v)
			v.Spawn("finished", 0, func(p *Process) { p.Sleep(1) })
			v.Spawn("parked", 0, func(p *Process) { c.Wait(p) })
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
	c := NewCond(e)
	e.Spawn("parked", 0, func(p *Process) { c.Wait(p) })
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
	e := NewEngine()
	ran := 0
	e.Schedule(1, func() { ran++; e.Stop() })
	e.Schedule(2, func() { ran++ })
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if ran != 1 {
		t.Fatalf("ran = %d, want 1", ran)
	}
}

// Property: for any program of handler pushes and sleeping processes, the
// sequential kernel fires events in (time, push order), and the parallel
// kernel fires them in exactly the sequential order. Programs push at
// delays on both sides of every wheel-span multiple up to 3x the span, in
// same-cycle bursts, and across shards onto cycles the target shard is
// filling from inside the same window. Their processes push handler events
// too, and sleep both below the lookahead, where a parallel shard can run
// the sleep ahead inside its window, and across window ends and the wheel
// span; the run is split by RunUntil deadlines.
func TestEventOrderProperty(t *testing.T) {
	forKernels(t, func(t *testing.T, newEngine func() Engine) {
		f := func(seed uint64) bool {
			want, _ := runOrderProgram(t, NewSequential(), seed)
			for i := 1; i < len(want); i++ {
				a, b := want[i-1], want[i]
				if a.at > b.at || a.at == b.at && a.push >= b.push {
					t.Logf("seed %d: sequential fired %+v after %+v", seed, b, a)
					return false
				}
			}
			got, nodes := runOrderProgram(t, newEngine(), seed)
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

// orderLookahead is the parallel-2 kernel's window (see kernels): the
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

// runOrderProgram runs the order program for seed on eng, split by
// RunUntil deadlines, and returns the fired events in global order (as
// the Emit sink received them) and in each node's own execution order.
func runOrderProgram(t *testing.T, eng Engine, seed uint64) (global []orderRec, nodes [2][]orderRec) {
	t.Helper()
	defer eng.Shutdown()
	const maxDepth = 6
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
	// and the other node at the lookahead or later.
	target := func(node int, hc uint64) (int, Time) {
		delay := orderDelays[(hc>>8)%uint64(len(orderDelays))]
		if hc%4 == 0 {
			delay = Time(hc>>8) % (3*wheelSpan + 2)
		}
		if (hc>>40)%3 == 0 {
			return 1 - node, max(delay, orderLookahead)
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
				switch {
				case node != ev.node || (hc>>56)%2 == 0:
					view.ScheduleCallNode(node, delay, fire, child)
				case (hc>>57)%2 == 0:
					view.ScheduleCall(delay, fire, child)
				default:
					view.Schedule(delay, func() { fire(child) })
				}
			}
		}
	}
	for r := uint64(0); r < 6; r++ {
		node := int(r % 2)
		eng.ForNode(node).ScheduleCall(Time(r/2), fire, &orderEv{label: mix64(seed + r), node: node, push: pushes.Add(1), due: Time(r / 2)})
	}
	// Two sleeping processes per node. Each step records, pushes a handler
	// event two levels short of the depth limit, and sleeps; the next
	// step's push index is taken at that Sleep, where a parked sleep
	// pushes its wake.
	for r := uint64(0); r < 4; r++ {
		node := int(r % 2)
		label, push, due := mix64(seed+r+6), pushes.Add(1), Time(r)
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
		e.Spawn("stuck", 0, func(p *Process) { NewCond(e).Wait(p) })
		_ = e.Run()
		e.Shutdown()
		e.Shutdown()
	})
}
