package machine

// Randomized cross-mechanism stress: CPUs hammer a small set of shared
// counters with a mix of every increment flavour the machine supports
// (plain RMW via lock-free LL/SC loops, processor atomics, AMOs with and
// without update pushes, MAOs on separate non-coherent words), interleaved
// with loads and capacity-pressure traffic. Afterwards the total must equal
// the number of increments applied and the machine must pass the coherence
// invariant check.

import (
	"fmt"
	"math/rand"
	"testing"

	"amosim/internal/config"
	"amosim/internal/proc"
)

// llscInc is a local copy of the LL/SC retry loop (syncprim depends on this
// package, so we cannot import it here).
func llscInc(c *proc.CPU, addr uint64) {
	for attempt := uint64(0); ; attempt++ {
		v := c.LoadLinked(addr)
		if c.StoreConditional(addr, v+1) {
			return
		}
		shift := attempt
		if shift > 4 {
			shift = 4
		}
		c.Think((16 << shift) + uint64(c.ID()*41%64))
	}
}

// TestStressMixedMechanisms fans seeded trials across machine shapes. Every
// subtest is named by its shape and seed, and a failure logs the exact
// runMixedStress call that replays it.
func TestStressMixedMechanisms(t *testing.T) {
	cases := []struct {
		name             string
		procs, vars, ops int
		seeds            []int64
	}{
		{name: "baseline", procs: 8, vars: 3, ops: 25, seeds: []int64{1, 7, 42}},
		{name: "contended", procs: 8, vars: 1, ops: 30, seeds: []int64{3, 99}},
		{name: "wide", procs: 16, vars: 5, ops: 15, seeds: []int64{11, 1234}},
		{name: "small", procs: 4, vars: 2, ops: 40, seeds: []int64{8, 4096}},
	}
	for _, tc := range cases {
		tc := tc
		if testing.Short() {
			tc.seeds = tc.seeds[:1]
		}
		for _, seed := range tc.seeds {
			seed := seed
			t.Run(fmt.Sprintf("%s/seed=%d", tc.name, seed), func(t *testing.T) {
				runMixedStress(t, seed, tc.procs, tc.vars, tc.ops)
			})
		}
	}
}

func runMixedStress(t *testing.T, seed int64, procs, vars, opsPerCPU int) {
	t.Helper()
	// Every failure below carries the replay line for this exact trial.
	replay := fmt.Sprintf("runMixedStress(t, %d, %d, %d, %d)", seed, procs, vars, opsPerCPU)
	m := newMachine(t, procs)
	coherent := make([]uint64, vars)
	maoVars := make([]uint64, vars)
	for i := 0; i < vars; i++ {
		coherent[i] = m.AllocWord(i % m.Cfg.Nodes())
		maoVars[i] = m.AllocWord((i + 1) % m.Cfg.Nodes())
	}
	incs := make([]uint64, vars)    // oracle for coherent vars
	maoIncs := make([]uint64, vars) // oracle for MAO vars

	m.OnAllCPUs(func(c *proc.CPU) {
		rng := rand.New(rand.NewSource(seed + int64(c.ID())*7919))
		for op := 0; op < opsPerCPU; op++ {
			v := rng.Intn(vars)
			switch rng.Intn(6) {
			case 0:
				llscInc(c, coherent[v])
				incs[v]++
			case 1:
				c.AtomicFetchAdd(coherent[v], 1)
				incs[v]++
			case 2:
				c.AMOFetchAdd(coherent[v], 1) // update-always
				incs[v]++
			case 3:
				c.AMO(0 /*OpInc*/, coherent[v], 0, 0, 0) // no update push
				incs[v]++
			case 4:
				c.MAOFetchAdd(maoVars[v], 1)
				maoIncs[v]++
			case 5:
				c.Load(coherent[v]) // pure read pressure
			}
			c.Think(uint64(rng.Intn(120)))
		}
	})
	mustRun(t, m)

	if err := m.CheckCoherence(); err != nil {
		t.Fatalf("coherence violated: %v [replay: %s]", err, replay)
	}
	for i := 0; i < vars; i++ {
		if got := m.ReadWordCoherent(coherent[i]); got != incs[i] {
			t.Errorf("coherent var %d = %d, want %d [replay: %s]", i, got, incs[i], replay)
		}
		if got := m.ReadWordCoherent(maoVars[i]); got != maoIncs[i] {
			t.Errorf("MAO var %d = %d, want %d [replay: %s]", i, got, maoIncs[i], replay)
		}
	}
}

func TestStressWithTinyCaches(t *testing.T) {
	// Capacity evictions everywhere: single-line caches and a 1-word AMU
	// cache force constant writebacks, fine-evictions and refills.
	m := newMachine(t, 8, func(c *config.Config) {
		c.CacheSets = 1
		c.CacheWays = 1
		c.AMUCacheWords = 1
	})
	vars := []uint64{m.AllocWord(0), m.AllocWord(1), m.AllocWord(2)}
	var want [3]uint64
	m.OnAllCPUs(func(c *proc.CPU) {
		rng := rand.New(rand.NewSource(int64(c.ID()) * 13))
		for op := 0; op < 20; op++ {
			v := rng.Intn(3)
			if rng.Intn(2) == 0 {
				c.AtomicFetchAdd(vars[v], 1)
			} else {
				c.AMOFetchAdd(vars[v], 1)
			}
			want[v]++
			c.Think(uint64(rng.Intn(60)))
		}
	})
	mustRun(t, m)
	if err := m.CheckCoherence(); err != nil {
		t.Fatalf("coherence violated: %v", err)
	}
	for i, a := range vars {
		if got := m.ReadWordCoherent(a); got != want[i] {
			t.Errorf("var %d = %d, want %d", i, got, want[i])
		}
	}
}

func TestCheckCoherenceAfterBarrierRuns(t *testing.T) {
	m := newMachine(t, 8)
	count := m.AllocWord(0)
	m.OnAllCPUs(func(c *proc.CPU) {
		for e := 1; e <= 3; e++ {
			c.AMOInc(count, uint64(8*e))
			c.SpinUntil(count, proc.AtLeast(uint64(8*e)))
		}
	})
	mustRun(t, m)
	if err := m.CheckCoherence(); err != nil {
		t.Fatalf("coherence violated: %v", err)
	}
}
