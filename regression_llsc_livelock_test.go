package amosim

import (
	"testing"

	"amosim/internal/machine"
	"amosim/internal/proc"
	"amosim/internal/syncprim"
)

// TestLockHangRepro is the regression for the deterministic LL/SC livelock:
// three contenders once phase-locked, each SC invalidating the others'
// links forever. Fixed by exclusive-fetch LL + directory residence +
// per-CPU-skewed backoff. It replicates RunLock's structure with a deadline
// so a wedge surfaces as a failure with state instead of a test timeout.
// It runs on every backend, on the sequential kernel and on 2 parallel
// shards: on dsm the LL/SC loops run as event-context steps, whose wedge
// would surface the same way.
func TestLockHangRepro(t *testing.T) {
	for _, be := range Backends {
		for _, engine := range []string{"seq", "parallel"} {
			t.Run(be.String()+"/"+engine, func(t *testing.T) {
				cfg := DefaultConfig(16)
				cfg.Backend = be
				if engine == "parallel" {
					cfg.Engine, cfg.Shards = "parallel", 2
				}
				lockHangRepro(t, cfg)
			})
		}
	}
}

// lockHangRepro runs the contended LL/SC ticket lock on cfg's machine
// under the RunUntil bound, logging each CPU's progress if it wedges.
func lockHangRepro(t *testing.T, cfg Config) {
	m, err := machine.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Shutdown()
	l := syncprim.NewTicketLock(m, syncprim.LLSC, 0)
	align := syncprim.NewBarrier(m, syncprim.AMO, cfg.Processors, cfg.Nodes()-1)
	progress := make([]int, cfg.Processors)
	m.OnAllCPUs(func(c *proc.CPU) {
		tk := l.Acquire(c)
		l.Release(c, tk)
		progress[c.ID()] = 1
		align.Wait(c)
		progress[c.ID()] = 2
		for i := 0; i < 3; i++ {
			c.Think(uint64((c.ID()*29 + i*17) % 64))
			tk := l.Acquire(c)
			c.Think(25)
			l.Release(c, tk)
			progress[c.ID()] = 3 + i
		}
		align.Wait(c)
		progress[c.ID()] = 100
	})
	if _, err := m.RunUntil(20_000_000); err != nil {
		for id, c := range m.CPUs {
			scf := c.Stats().SCFailures
			ln := c.Cache().Lookup(l.NextAddr())
			st := "absent"
			if ln != nil {
				st = ln.State.String()
			}
			t.Logf("cpu%d progress=%d scFail=%d nextLine=%s", id, progress[id], scf, st)
		}
		t.Fatalf("wedged: %v\npendingEvents=%d", err, m.Eng.Pending())
	}
	for id, p := range progress {
		if p != 100 {
			t.Errorf("cpu %d stopped at progress %d", id, p)
		}
	}
}

// TestLLSCProgressAboveDirCyclesBoundary pins the boundary Config.Validate
// enforces on the coherent backends. At DirCycles <= IssueCycles +
// L1HitCycles a queued GETX's intervention reaches the new owner before its
// store conditional commits, and the LL/SC barrier and ticket lock never
// finish. One cycle above it, DirCycles = IssueCycles + L1HitCycles + 1,
// both finish well inside the RunUntil bound.
func TestLLSCProgressAboveDirCyclesBoundary(t *testing.T) {
	for _, be := range []Backend{BackendAMO, BackendSynCron} {
		for _, procs := range []int{4, 16} {
			for _, lat := range []struct{ issue, l1 uint64 }{{1, 2}, {8, 2}, {1, 16}, {4, 4}} {
				cfg := DefaultConfig(procs)
				cfg.Backend = be
				cfg.IssueCycles, cfg.L1HitCycles = lat.issue, lat.l1
				cfg.DirCycles = lat.issue + lat.l1 + 1
				for _, lock := range []bool{false, true} {
					m, err := machine.New(cfg)
					if err != nil {
						t.Fatal(err)
					}
					if lock {
						l := syncprim.NewTicketLock(m, syncprim.LLSC, 0)
						m.OnAllCPUs(func(c *proc.CPU) {
							for i := 0; i < 3; i++ {
								c.Think(uint64((c.ID()*29 + i*17) % 64))
								tk := l.Acquire(c)
								c.Think(25)
								l.Release(c, tk)
							}
						})
					} else {
						b := syncprim.NewBarrier(m, syncprim.LLSC, procs, 0)
						m.OnAllCPUs(func(c *proc.CPU) {
							for e := 0; e < 3; e++ {
								c.Think(uint64((c.ID()*37 + e*13) % 100))
								b.Wait(c)
							}
						})
					}
					if _, err := m.RunUntil(5_000_000); err != nil {
						t.Errorf("%v p=%d issue=%d l1hit=%d dir=%d lock=%v: %v", be, procs, lat.issue, lat.l1, cfg.DirCycles, lock, err)
					}
					m.Shutdown()
				}
			}
		}
	}
}
