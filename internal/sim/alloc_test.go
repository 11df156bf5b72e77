package sim

import "testing"

// The event kernel's pooled-arena contract: once the arena has warmed up,
// scheduling and dispatching events — and context-switching processes —
// allocates nothing. These tests pin that at exactly zero so a regression
// on the hot path fails CI rather than silently eroding throughput.

// TestScheduleSteadyStateZeroAlloc pins a closure built once and passed
// as the argument of ScheduleCall, the way the tests' schedule helper
// passes one: a func value is pointer-shaped, so it rides the event's
// argument without boxing.
func TestScheduleSteadyStateZeroAlloc(t *testing.T) {
	eng := NewSequential()
	var n int
	fn := func() { n++ }
	burst := func() {
		for i := 0; i < 64; i++ {
			schedule(eng, Time(i%7), fn)
		}
		if err := eng.Run(); err != nil {
			t.Fatal(err)
		}
	}
	burst() // warm the arena and the heap slice
	if allocs := testing.AllocsPerRun(100, burst); allocs != 0 {
		t.Fatalf("scheduling a prebuilt closure allocates %.1f/op, want 0", allocs)
	}
	if n != 102*64 {
		t.Fatalf("the closure ran %d times, want %d", n, 102*64)
	}
}

var testCall = func(a any) { *a.(*int)++ }

func TestScheduleCallSteadyStateZeroAlloc(t *testing.T) {
	eng := NewSequential()
	var n int
	arg := &n
	burst := func() {
		for i := 0; i < 64; i++ {
			eng.ScheduleCall(Time(i%7), testCall, arg)
		}
		// Beyond the wheel span: these wait in the overflow heap, and each
		// burst moves the wheel origin more than a full turn, so the
		// buckets wrap around.
		for i := Time(0); i < 8; i++ {
			eng.ScheduleCall(wheelSpan+i*wheelSpan/3, testCall, arg)
		}
		if err := eng.Run(); err != nil {
			t.Fatal(err)
		}
	}
	burst()
	if allocs := testing.AllocsPerRun(100, burst); allocs != 0 {
		t.Fatalf("ScheduleCall steady state allocates %.1f/op, want 0", allocs)
	}
}

// TestProcessSwitchSteadyStateZeroAlloc pins both ways a sleep returns.
// The four spinners sleep in phase, so each finds another's wake due first
// and parks: a context switch. The lone sleeper on each shard runs ahead
// until its wake ties a spinner's or crosses a parallel window end; on a
// shard, running ahead appends to the push log.
func TestProcessSwitchSteadyStateZeroAlloc(t *testing.T) {
	forKernels(t, func(t *testing.T, newEngine func() Engine) {
		eng := newEngine()
		defer eng.Shutdown()
		for i := 0; i < 4; i++ {
			eng.ForNode(i%2).Spawn("spinner", 0, func(p *Process) {
				for {
					p.Sleep(10)
				}
			})
		}
		for node := 0; node < eng.NumShards(); node++ {
			eng.ForNode(node).Spawn("sleeper", 1, func(p *Process) {
				for {
					p.Sleep(1)
				}
			})
		}
		deadline := Time(0)
		window := func() {
			deadline += 1000
			if err := eng.RunUntil(deadline); err != ErrDeadline {
				t.Fatalf("RunUntil = %v, want ErrDeadline (spinners never finish)", err)
			}
		}
		window() // warm: the first switches start the carrier coroutines
		if allocs := testing.AllocsPerRun(50, window); allocs != 0 {
			t.Fatalf("process context switching allocates %.1f/op, want 0", allocs)
		}
	})
}

// TestParallelBoundarySteadyStateZeroAlloc pins the boundary's delivery
// and flush paths, which the process test above never reaches. Two nodes
// on their own shards ping each other across shards at the lookahead;
// each ping starts a zero-delay chain whose later links have in-window
// pushers; and every handler emits into an installed sink. So every window
// ranks local and cross records, delivers through the cross list and
// flushes staged trace records.
func TestParallelBoundarySteadyStateZeroAlloc(t *testing.T) {
	eng := NewParallel(2, []int{0, 1}, orderLookahead)
	defer eng.Shutdown()
	records := 0
	eng.SetEmitSink(func(cycle uint64, kind, what string) { records++ })
	var pingers [2]pinger
	for node := range pingers {
		pingers[node] = pinger{view: eng.ForNode(node), node: node, peer: &pingers[1-node]}
		pingers[node].view.ScheduleCall(0, ping, &pingers[node])
	}
	deadline := Time(0)
	window := func() {
		deadline += 1000
		if err := eng.RunUntil(deadline); err != ErrDeadline {
			t.Fatalf("RunUntil = %v, want ErrDeadline (the pings never stop)", err)
		}
	}
	window() // warm: grows the push logs, cross lists, staged records and arenas
	if allocs := testing.AllocsPerRun(50, window); allocs != 0 {
		t.Fatalf("parallel window boundaries allocate %.1f/op, want 0", allocs)
	}
	if n := eng.Executed(); n == 0 || uint64(records) != n {
		t.Fatalf("sink received %d records for %d events, want one per event", records, n)
	}
}

// pinger is one node of the boundary test: it pings its peer across
// shards and runs a chain of zero-delay links on its own.
type pinger struct {
	view  Engine
	node  int
	peer  *pinger
	links int
}

func ping(a any) {
	p := a.(*pinger)
	p.view.Emit(p.view.Now(), "ping", "cross")
	p.links = 0
	p.view.ScheduleCall(0, pingLink, p)
	p.view.ScheduleCallNode(p.peer.node, orderLookahead, ping, p.peer)
}

func pingLink(a any) {
	p := a.(*pinger)
	p.view.Emit(p.view.Now(), "link", "zero-delay")
	if p.links++; p.links < 3 {
		p.view.ScheduleCall(0, pingLink, p)
	}
}

// TestSpawnOnIdleCarrierAllocs pins the point of carrier reuse: once a
// process has returned, the next Spawn on the same scheduler runs on its
// idle carrier and allocates only the Process, not a new coroutine.
func TestSpawnOnIdleCarrierAllocs(t *testing.T) {
	forKernels(t, func(t *testing.T, newEngine func() Engine) {
		eng := newEngine()
		defer eng.Shutdown()
		fn := func(p *Process) { p.Sleep(1) }
		spawnAndRun := func() {
			eng.ForNode(1).Spawn("p", 0, fn)
			if err := eng.Run(); err != nil {
				t.Fatal(err)
			}
		}
		spawnAndRun() // warm: starts the one carrier every later Spawn reuses
		if allocs := testing.AllocsPerRun(100, spawnAndRun); allocs > 1 {
			t.Fatalf("Spawn on an idle carrier allocates %.1f/op, want <= 1", allocs)
		}
	})
}
