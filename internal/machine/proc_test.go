package machine

// CPU-level behaviour tests that need the full protocol stack: link
// register semantics, spin wake-ups, store commit-at-grant, interrupt
// service, and counters. These complement the pure-cache tests in
// internal/cache and the directory tests in internal/directory.

import (
	"testing"

	"amosim/internal/config"
	"amosim/internal/proc"
)

func TestSCFailsAfterRemoteWrite(t *testing.T) {
	m := newMachine(t, 4)
	addr := m.AllocWord(0)
	var scOK bool
	m.OnCPU(0, func(c *proc.CPU) {
		c.LoadLinked(addr)
		// Park long enough for CPU 2's store to invalidate the link.
		c.Think(5000)
		scOK = c.StoreConditional(addr, 1)
	})
	m.OnCPU(2, func(c *proc.CPU) {
		c.Think(500)
		c.Store(addr, 42)
	})
	mustRun(t, m)
	if scOK {
		t.Fatal("SC succeeded although another CPU wrote the block in between")
	}
	if scf := m.CPUs[0].Stats().SCFailures; scf != 1 {
		t.Fatalf("scFailures = %d, want 1", scf)
	}
}

func TestSCFailsWithoutPrecedingLL(t *testing.T) {
	m := newMachine(t, 2)
	addr := m.AllocWord(0)
	var scOK bool
	m.OnCPU(0, func(c *proc.CPU) {
		scOK = c.StoreConditional(addr, 1)
	})
	mustRun(t, m)
	if scOK {
		t.Fatal("SC succeeded with no link armed")
	}
}

func TestSCFailsAfterLinkBlockEvicted(t *testing.T) {
	m := newMachine(t, 2, func(c *config.Config) {
		c.CacheSets = 1
		c.CacheWays = 1
	})
	a := m.AllocWord(0)
	b := m.AllocWord(0)
	var scOK bool
	m.OnCPU(0, func(c *proc.CPU) {
		c.LoadLinked(a)
		c.Load(b) // evicts a's block from the single-line cache
		scOK = c.StoreConditional(a, 1)
	})
	mustRun(t, m)
	if scOK {
		t.Fatal("SC succeeded although the linked block was evicted")
	}
}

func TestLLSCOnDifferentBlockFails(t *testing.T) {
	m := newMachine(t, 2)
	a := m.AllocWord(0)
	b := m.AllocWord(0) // different cache block by construction
	var scOK bool
	m.OnCPU(0, func(c *proc.CPU) {
		c.LoadLinked(a)
		scOK = c.StoreConditional(b, 1)
	})
	mustRun(t, m)
	if scOK {
		t.Fatal("SC to a different block succeeded")
	}
}

func TestStoreCommitsDespiteImmediateSteal(t *testing.T) {
	// CPU 0 stores while CPU 1..3 hammer the same block with loads and
	// stores; every CPU's writes must all land (the write commits at grant).
	const procs = 4
	const iters = 10
	m := newMachine(t, procs)
	addr := m.AllocWord(1)
	slots := make([]uint64, procs)
	for i := range slots {
		slots[i] = m.AllocWord(1)
	}
	m.OnAllCPUs(func(c *proc.CPU) {
		for i := 0; i < iters; i++ {
			c.Store(addr, uint64(c.ID()*1000+i)) // contended block
			v := c.Load(slots[c.ID()])
			c.Store(slots[c.ID()], v+1) // private check counter
		}
	})
	mustRun(t, m)
	for i := range slots {
		if got := readCoherent(m, slots[i]); got != iters {
			t.Fatalf("cpu %d slot = %d, want %d", i, got, iters)
		}
	}
}

func TestSpinWakesOnWordUpdate(t *testing.T) {
	m := newMachine(t, 4)
	addr := m.AllocWord(0)
	var wokeAt uint64
	const releaseStart = 2000
	m.OnCPU(1, func(c *proc.CPU) {
		c.SpinUntil(addr, proc.Equal(3))
		wokeAt = uint64(c.Now())
	})
	m.OnCPU(2, func(c *proc.CPU) {
		c.Think(releaseStart)
		c.AMOFetchAdd(addr, 3) // update-always: patches spinner's cache
	})
	mustRun(t, m)
	if wokeAt == 0 {
		t.Fatal("spinner never woke")
	}
	if wokeAt < releaseStart {
		t.Fatalf("spinner woke at %d before the release was even issued", wokeAt)
	}
	if wokeAt > releaseStart+3000 {
		t.Fatalf("wake took %d cycles after release issue; update path too slow", wokeAt-releaseStart)
	}
}

func TestSpinWakesOnInvalidate(t *testing.T) {
	m := newMachine(t, 4)
	addr := m.AllocWord(0)
	woke := false
	m.OnCPU(1, func(c *proc.CPU) {
		c.SpinUntil(addr, proc.Equal(7))
		woke = true
	})
	m.OnCPU(3, func(c *proc.CPU) {
		c.Think(2000)
		c.Store(addr, 7) // invalidates the spinner, who reloads
	})
	mustRun(t, m)
	if !woke {
		t.Fatal("spinner never woke after invalidation")
	}
}

func TestSpinUntilUncachedPolls(t *testing.T) {
	m := newMachine(t, 4)
	addr := m.AllocWord(1)
	var got uint64
	m.OnCPU(0, func(c *proc.CPU) {
		got = c.SpinUntilUncached(addr, proc.AtLeast(2), 200)
	})
	m.OnCPU(2, func(c *proc.CPU) {
		c.Think(1500)
		c.MAOFetchAdd(addr, 2)
	})
	mustRun(t, m)
	if got < 2 {
		t.Fatalf("uncached spin returned %d", got)
	}
}

func TestAtomicFetchAddHitsInOwnedLine(t *testing.T) {
	m := newMachine(t, 2)
	addr := m.AllocWord(0)
	var first, second uint64
	m.OnCPU(0, func(c *proc.CPU) {
		start := c.Now()
		c.AtomicFetchAdd(addr, 1)
		first = uint64(c.Now() - start)
		start = c.Now()
		c.AtomicFetchAdd(addr, 1)
		second = uint64(c.Now() - start)
	})
	mustRun(t, m)
	if second >= first {
		t.Fatalf("owned-line atomic (%d) not cheaper than miss (%d)", second, first)
	}
}

func TestHandlerRegistrationDuplicatePanics(t *testing.T) {
	m := newMachine(t, 2)
	m.CPUs[0].RegisterHandler(9, func(c *proc.CPU, a, b uint64) uint64 { return 0 })
	if !m.CPUs[0].HasHandler(9) {
		t.Fatal("HasHandler(9) false after registration")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	m.CPUs[0].RegisterHandler(9, func(c *proc.CPU, a, b uint64) uint64 { return 0 })
}

func TestDoubleProgramPanics(t *testing.T) {
	m := newMachine(t, 2)
	m.OnCPU(0, func(c *proc.CPU) { c.Think(100) })
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	m.OnCPU(0, func(c *proc.CPU) {})
}

func TestCrossNodeActiveMessageRPCDoesNotDeadlock(t *testing.T) {
	// Two home CPUs call each other's handlers simultaneously; both must
	// keep serving their own queues while awaiting replies.
	m := newMachine(t, 4)
	aOn1 := m.AllocWord(1) // handler runs on CPU 2
	aOn0 := m.AllocWord(0) // handler runs on CPU 0
	m.RegisterHandlerAll(1, func(c *proc.CPU, addr, arg uint64) uint64 {
		v := c.Load(addr)
		c.Store(addr, v+arg)
		return v
	})
	m.OnCPU(0, func(c *proc.CPU) {
		c.ActiveMessageCall(1, aOn1, 5) // RPC to CPU 2
	})
	m.OnCPU(2, func(c *proc.CPU) {
		c.ActiveMessageCall(1, aOn0, 7) // RPC to CPU 0
	})
	mustRun(t, m)
	if got := readCoherent(m, aOn1); got != 5 {
		t.Fatalf("aOn1 = %d, want 5", got)
	}
	if got := readCoherent(m, aOn0); got != 7 {
		t.Fatalf("aOn0 = %d, want 7", got)
	}
}

func TestWordUpdateToUncachedBlockIsDropped(t *testing.T) {
	// A CPU that evicted the block silently may still receive word updates;
	// they must be ignored without corrupting anything.
	m := newMachine(t, 4, func(c *config.Config) {
		c.CacheSets = 1
		c.CacheWays = 1
	})
	a := m.AllocWord(0)
	b := m.AllocWord(0)
	m.OnCPU(1, func(c *proc.CPU) {
		c.Load(a)       // become a sharer of a's block
		c.Load(b)       // evict a (single-line cache); dir still lists us
		c.Think(20_000) // wait out CPU 3's AMO and its update to us
		v := c.Load(a)  // reload: must see the AMO result from memory
		if v != 9 {
			t.Errorf("reloaded a = %d, want 9", v)
		}
	})
	m.OnCPU(3, func(c *proc.CPU) {
		c.Think(3000)
		c.AMOFetchAdd(a, 9) // pushes an update to the stale sharer list
	})
	mustRun(t, m)
}
