package sim

import (
	"math/rand"
	"runtime"
	"sort"
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

// Property: for any set of delays, events fire in nondecreasing time order
// and ties fire in scheduling order.
func TestEventOrderProperty(t *testing.T) {
	f := func(delays []uint16) bool {
		if len(delays) == 0 {
			return true
		}
		e := NewEngine()
		type rec struct {
			at  Time
			seq int
		}
		var fired []rec
		for i, d := range delays {
			at := Time(d)
			seq := i
			e.Schedule(at, func() { fired = append(fired, rec{e.Now(), seq}) })
		}
		if err := e.Run(); err != nil {
			return false
		}
		if len(fired) != len(delays) {
			return false
		}
		if !sort.SliceIsSorted(fired, func(i, j int) bool {
			if fired[i].at != fired[j].at {
				return fired[i].at < fired[j].at
			}
			return fired[i].seq < fired[j].seq
		}) {
			return false
		}
		for i := range fired {
			if fired[i].at != Time(delays[fired[i].seq]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
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
