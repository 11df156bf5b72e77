package proc_test

// Behavioural tests for the CPU model, run against a full machine (the
// external test package breaks the machine->proc import cycle). The deeper
// protocol interaction tests live in internal/machine; these cover the
// CPU-local semantics and counters.

import (
	"testing"

	"amosim/internal/config"
	"amosim/internal/core"
	"amosim/internal/machine"
	"amosim/internal/metrics"
	"amosim/internal/proc"
	"amosim/internal/sim"
)

func newMachine(t *testing.T, procs int) *machine.Machine {
	t.Helper()
	m, err := machine.New(config.Default(procs))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Shutdown)
	return m
}

func run(t *testing.T, m *machine.Machine) {
	t.Helper()
	if _, err := m.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
}

func TestLoadStoreRoundTrip(t *testing.T) {
	m := newMachine(t, 4)
	addr := m.AllocWord(1)
	var got uint64
	m.OnCPU(0, func(c *proc.CPU) {
		c.Store(addr, 123)
		got = c.Load(addr)
	})
	run(t, m)
	if got != 123 {
		t.Fatalf("got %d, want 123", got)
	}
}

func TestLLSCBasic(t *testing.T) {
	m := newMachine(t, 4)
	addr := m.AllocWord(0)
	var v uint64
	var ok bool
	m.OnCPU(2, func(c *proc.CPU) {
		v = c.LoadLinked(addr)
		ok = c.StoreConditional(addr, v+1)
	})
	run(t, m)
	if !ok || v != 0 {
		t.Fatalf("LL/SC: v=%d ok=%v", v, ok)
	}
}

func TestAtomicOpsFamily(t *testing.T) {
	m := newMachine(t, 4)
	addr := m.AllocWord(0)
	var fa, sw, cs uint64
	m.OnCPU(0, func(c *proc.CPU) {
		fa = c.AtomicFetchAdd(addr, 5) // 0 -> 5
		sw = c.AtomicSwap(addr, 9)     // 5 -> 9
		cs = c.AtomicCompareSwap(addr, 9, 2)
	})
	run(t, m)
	if fa != 0 || sw != 5 || cs != 9 {
		t.Fatalf("olds = %d, %d, %d", fa, sw, cs)
	}
}

func TestMAOFamily(t *testing.T) {
	m := newMachine(t, 4)
	addr := m.AllocWord(1)
	var fa, sw, cs, final uint64
	m.OnCPU(0, func(c *proc.CPU) {
		fa = c.MAOFetchAdd(addr, 3)
		sw = c.MAOSwap(addr, 10)
		cs = c.MAOCompareSwap(addr, 10, 1)
		final = c.UncachedLoad(addr)
	})
	run(t, m)
	if fa != 0 || sw != 3 || cs != 10 || final != 1 {
		t.Fatalf("values = %d, %d, %d, %d", fa, sw, cs, final)
	}
}

func TestAMOFamily(t *testing.T) {
	m := newMachine(t, 4)
	addr := m.AllocWord(0)
	var inc, fa uint64
	m.OnCPU(1, func(c *proc.CPU) {
		inc = c.AMOInc(addr, 100)
		fa = c.AMOFetchAdd(addr, 4)
	})
	run(t, m)
	if inc != 0 || fa != 1 {
		t.Fatalf("olds = %d, %d", inc, fa)
	}
}

func TestThinkAdvancesOnlyTime(t *testing.T) {
	m := newMachine(t, 2)
	var before, after uint64
	m.OnCPU(0, func(c *proc.CPU) {
		before = uint64(c.Now())
		c.Think(500)
		after = uint64(c.Now())
	})
	run(t, m)
	if after-before != 500 {
		t.Fatalf("Think advanced %d cycles, want 500", after-before)
	}
	if n := m.Net.Stats().NetMessages; n != 0 {
		t.Fatalf("Think generated %d messages", n)
	}
}

func TestCPUAccessors(t *testing.T) {
	m := newMachine(t, 4)
	c := m.CPUs[3]
	if c.ID() != 3 || c.Node() != 1 {
		t.Fatalf("ID/Node = %d/%d", c.ID(), c.Node())
	}
	if c.Cache() == nil {
		t.Fatal("nil cache")
	}
	if c.HasHandler(1) {
		t.Fatal("phantom handler")
	}
	if st := c.Stats(); st != (metrics.CPUStats{}) {
		t.Fatalf("fresh counters nonzero: %+v", st)
	}
}

func TestSpinUntilImmediateSatisfaction(t *testing.T) {
	m := newMachine(t, 2)
	addr := m.AllocWord(0)
	m.Mem.WriteWord(addr, 7)
	var got uint64
	m.OnCPU(0, func(c *proc.CPU) {
		got = c.SpinUntil(addr, proc.Equal(7))
	})
	run(t, m)
	if got != 7 {
		t.Fatalf("got %d", got)
	}
}

func TestActiveMessageArgumentPlumbing(t *testing.T) {
	m := newMachine(t, 4)
	addr := m.AllocWord(1)
	m.RegisterHandlerAll(5, func(c *proc.CPU, a, arg uint64) uint64 {
		return a + arg // echo computed from both fields
	})
	var got uint64
	m.OnCPU(0, func(c *proc.CPU) {
		got = c.ActiveMessageCall(5, addr, 11)
	})
	m.OnCPU(2, func(c *proc.CPU) { c.Think(1) })
	run(t, m)
	if got != addr+11 {
		t.Fatalf("handler result = %d, want %d", got, addr+11)
	}
}

// TestSpinRecheckSteadyStateZeroAlloc pins a parked spin loop's wakes at
// zero allocations: the wake, the re-check's steps and the re-park all run
// in event context on the CPU's own state, the reload's GetShared and its
// reply wait included.
func TestSpinRecheckSteadyStateZeroAlloc(t *testing.T) {
	p := config.Default(2)
	// A wake that changes nothing: each Poke re-checks a line still
	// cached. CPU 1 sleeps far past each run's deadline, so every run ends
	// with ErrDeadline rather than a deadlock report.
	t.Run("hit", func(t *testing.T) {
		m := newMachine(t, 2)
		addr := m.AllocWord(0)
		m.OnCPU(0, func(c *proc.CPU) { c.SpinUntil(addr, proc.Equal(1)) })
		m.OnCPU(1, func(c *proc.CPU) { c.Think(1 << 40) })
		spinner := m.CPUs[0]
		recheck := func() {
			spinner.Poke()
			if err := m.Eng.RunUntil(m.Eng.Now() + 100); err != sim.ErrDeadline {
				t.Fatalf("RunUntil = %v, want ErrDeadline", err)
			}
		}
		// Load the line and park the spinner, then warm the re-check path.
		if err := m.Eng.RunUntil(1000); err != sim.ErrDeadline {
			t.Fatalf("RunUntil = %v, want ErrDeadline", err)
		}
		recheck()
		before := spinner.Metrics().Cycles
		hits := spinner.Cache().Stats().Hits
		if allocs := testing.AllocsPerRun(100, recheck); allocs != 0 {
			t.Fatalf("spurious wake, re-check and re-park allocate %.1f/op, want 0", allocs)
		}
		// Each re-check is a reload (issue and hit latencies) and a spin
		// check charged to compute; the rest of each run is spin idle.
		after := spinner.Metrics().Cycles
		perCheck := p.IssueCycles + p.L1HitCycles + p.SpinCheckCycles
		if got, want := after.Compute-before.Compute, 101*perCheck; got != want {
			t.Fatalf("re-checks charged %d compute cycles, want %d", got, want)
		}
		if got := spinner.Cache().Stats().Hits - hits; got != 101 {
			t.Fatalf("re-checks counted %d cache hits, want 101", got)
		}
	})
	// A wake whose reload misses: CPU 1 stores 0 to the spun word every
	// period cycles, and each run spans one store. The store invalidates
	// the spinner's copy, so the re-check sends GetShared, waits for the
	// reply, finds the predicate still false and parks again.
	t.Run("reload", func(t *testing.T) {
		const period = 1000
		m := newMachine(t, 2)
		addr := m.AllocWord(0)
		m.OnCPU(0, func(c *proc.CPU) { c.SpinUntil(addr, proc.Equal(1)) })
		m.OnCPU(1, func(c *proc.CPU) {
			for at := sim.Time(period); ; at += period {
				c.Think(uint64(at - c.Now()))
				c.Store(addr, 0)
			}
		})
		spinner := m.CPUs[0]
		deadline := sim.Time(period / 2)
		reload := func() {
			if err := m.Eng.RunUntil(deadline); err != sim.ErrDeadline {
				t.Fatalf("RunUntil = %v, want ErrDeadline", err)
			}
			deadline += period
		}
		// Load the line and park the spinner, then warm the reload path.
		reload()
		reload()
		before := spinner.Metrics().Cycles
		misses := spinner.Cache().Stats().Misses
		if allocs := testing.AllocsPerRun(100, reload); allocs != 0 {
			t.Fatalf("invalidation, reload and re-park allocate %.1f/op, want 0", allocs)
		}
		// Each reload is an issue latency and, once the reply fills the
		// line, a spin check charged to compute: a miss sleeps no hit
		// latency.
		after := spinner.Metrics().Cycles
		if got, want := after.Compute-before.Compute, 101*(p.IssueCycles+p.SpinCheckCycles); got != want {
			t.Fatalf("reloads charged %d compute cycles, want %d", got, want)
		}
		if got := spinner.Cache().Stats().Misses - misses; got != 101 {
			t.Fatalf("reloads counted %d cache misses, want 101", got)
		}
	})
}

// TestLLSCSteadyStateZeroAlloc pins the remote LL/SC loop at zero
// allocations. On dsm, CPU 0 and CPU 2, on different nodes, start an
// LL/SC fetch-add on one word at the same cycle of every period, so each
// period's loops contend the same way: their steps send the remote loads
// and compare-and-swaps, wait for the replies, and one SC fails and backs
// off before its retry commits, all in event context on the CPUs' own
// state.
func TestLLSCSteadyStateZeroAlloc(t *testing.T) {
	const period = 40000
	cfg := config.Default(4)
	cfg.Backend = config.BackendDSM
	m, err := machine.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Shutdown)
	addr := m.AllocWord(1)
	for _, id := range []int{0, 2} {
		m.OnCPU(id, func(c *proc.CPU) {
			for at := sim.Time(period); ; at += period {
				c.Think(uint64(at - c.Now()))
				c.LLSC(core.OpFetchAdd, addr, 1, 0)
			}
		})
	}
	// Each run spans one period's adds, from half a period before them.
	deadline := sim.Time(period / 2)
	adds := func() {
		if err := m.Eng.RunUntil(deadline); err != sim.ErrDeadline {
			t.Fatalf("RunUntil = %v, want ErrDeadline", err)
		}
		deadline += period
	}
	scFailures := func() uint64 { return m.CPUs[0].Stats().SCFailures + m.CPUs[2].Stats().SCFailures }
	// Start the programs, then warm the loop's path.
	adds()
	adds()
	failed, executed := scFailures(), m.Eng.Executed()
	if allocs := testing.AllocsPerRun(100, adds); allocs != 0 {
		t.Fatalf("contended remote LL/SC loops allocate %.1f/op, want 0", allocs)
	}
	// AllocsPerRun runs adds once more than it averages over.
	if got := scFailures() - failed; got != 101*llscFailuresPerPeriod {
		t.Fatalf("101 periods failed %d SCs, want %d", got, 101*llscFailuresPerPeriod)
	}
	if got := m.Eng.Executed() - executed; got != 101*llscEventsPerPeriod {
		t.Fatalf("101 periods ran %d events, want %d", got, 101*llscEventsPerPeriod)
	}
}

// One period of TestLLSCSteadyStateZeroAlloc: one SC fails, and the two
// loops, their retry included, run this many events.
const (
	llscFailuresPerPeriod = 1
	llscEventsPerPeriod   = 36
)
