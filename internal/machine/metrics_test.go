package machine

import (
	"reflect"
	"testing"

	"amosim/internal/config"
	"amosim/internal/metrics"
	"amosim/internal/proc"
	"amosim/internal/sim"
)

// TestMetricsMidRunConserves takes snapshots from inside a running program
// — the way experiment windows are captured — and checks that every one
// conserves and that diffing two of them yields the window invariants.
func TestMetricsMidRunConserves(t *testing.T) {
	const procs = 4
	m := newMachine(t, procs)
	addr := m.AllocWord(0)
	snaps := make([]struct {
		at   sim.Time
		snap interface{ CheckConservation() error }
	}, 0, 8)
	m.OnCPU(0, func(c *proc.CPU) {
		for i := 0; i < 4; i++ {
			c.Think(50)
			c.Store(addr, uint64(i))
			s := m.Metrics()
			snaps = append(snaps, struct {
				at   sim.Time
				snap interface{ CheckConservation() error }
			}{c.Now(), s})
		}
	})
	for id := 1; id < procs; id++ {
		m.OnCPU(id, func(c *proc.CPU) {
			c.SpinUntil(addr, proc.Equal(3))
		})
	}
	mustRun(t, m)
	if len(snaps) != 4 {
		t.Fatalf("captured %d snapshots, want 4", len(snaps))
	}
	for i, s := range snaps {
		if err := s.snap.CheckConservation(); err != nil {
			t.Fatalf("snapshot %d (cycle %d): %v", i, s.at, err)
		}
	}
}

// TestMetricsDiffWindow checks the Diff arithmetic against a live window:
// window length equals the cycle delta between the endpoint snapshots, and
// the diff's attribution conserves even though both endpoints were taken
// while other CPUs sat mid-wait.
func TestMetricsDiffWindow(t *testing.T) {
	const procs = 4
	m := newMachine(t, procs)
	addr := m.AllocWord(1)
	var startAt, endAt sim.Time
	var startSnap, endSnap = m.Metrics(), m.Metrics()
	m.OnCPU(0, func(c *proc.CPU) {
		c.Think(30)
		startAt, startSnap = c.Now(), m.Metrics()
		for i := 0; i < 5; i++ {
			c.AMOInc(addr, 0)
			c.Think(20)
		}
		endAt, endSnap = c.Now(), m.Metrics()
		c.Store(addr, 99)
	})
	for id := 1; id < procs; id++ {
		m.OnCPU(id, func(c *proc.CPU) {
			c.SpinUntil(addr, proc.Equal(99))
		})
	}
	mustRun(t, m)
	win := endSnap.Diff(startSnap)
	if got, want := win.Cycle, uint64(endAt-startAt); got != want {
		t.Fatalf("window length %d, want %d", got, want)
	}
	if err := win.CheckConservation(); err != nil {
		t.Fatal(err)
	}
	if win.Nodes[1].AMU.Ops != 5 { // addr is homed on node 1
		t.Fatalf("window AMU ops = %d, want 5", win.Nodes[1].AMU.Ops)
	}
	if win.Network.Messages == 0 {
		t.Fatal("window saw no network traffic")
	}
}

// TestMetricsDoesNotPerturbRun pins the observer-effect guarantee on
// every backend: a run that takes snapshots finishes at exactly the same
// cycle, with exactly the same counters, as one that does not. It also
// checks the snapshot's shape (see checkSnapshotShape) and its Kernel
// section, which is absent until EnableKernelMetrics.
func TestMetricsDoesNotPerturbRun(t *testing.T) {
	for _, b := range config.Backends {
		t.Run(b.String(), func(t *testing.T) {
			run := func(observe bool) (sim.Time, metrics.Snapshot) {
				m := newMachine(t, 4, func(c *config.Config) { c.Backend = b })
				addr, word := m.AllocWord(0), m.AllocWord(1)
				m.OnAllCPUs(func(c *proc.CPU) {
					for i := 0; i < 3; i++ {
						c.Think(uint64(10 + c.ID()))
						c.AMOInc(addr, 0)
						if observe {
							if s := m.Metrics(); s.Cycle != uint64(c.Now()) {
								t.Errorf("cpu %d: snapshot at cycle %d, want %d", c.ID(), s.Cycle, c.Now())
							}
						}
					}
					c.Store(word, uint64(c.ID()))
				})
				at := mustRun(t, m)
				snap := m.Metrics()
				if snap.Cycle != uint64(at) {
					t.Errorf("snapshot at cycle %d, want %d", snap.Cycle, at)
				}
				checkSnapshotShape(t, m, snap, 4*3)
				if snap.Kernel != nil {
					t.Errorf("Kernel section %+v before EnableKernelMetrics", snap.Kernel)
				}
				m.EnableKernelMetrics()
				if k := m.Metrics().Kernel; k == nil || k.EventsExecuted != m.Eng.Executed() {
					t.Errorf("Kernel section %+v after EnableKernelMetrics, want EventsExecuted %d", k, m.Eng.Executed())
				}
				return at, snap
			}
			atA, snapA := run(false)
			atB, snapB := run(true)
			if atA != atB {
				t.Fatalf("observed run finished at %d, unobserved at %d", atB, atA)
			}
			if !reflect.DeepEqual(snapA, snapB) {
				t.Fatalf("observed run diverged:\n%+v\n%+v", snapB, snapA)
			}
		})
	}
}

// checkSnapshotShape checks that s lists m's CPUs and nodes in ID order,
// that each node's section is its backend's own (Directory and AMU on
// amo, Directory and Sync on syncron, DSM alone on dsm, the others zero
// or nil), that the backend's unit counted atomics AMOs, and that the
// memory and network sections were read.
func checkSnapshotShape(t *testing.T, m *Machine, s metrics.Snapshot, atomics uint64) {
	t.Helper()
	if len(s.CPUs) != len(m.CPUs) {
		t.Fatalf("%d CPUs in snapshot, want %d", len(s.CPUs), len(m.CPUs))
	}
	for i, c := range s.CPUs {
		if c.ID != i || c.Node != i/m.Cfg.ProcsPerNode {
			t.Errorf("CPUs[%d] is cpu %d on node %d", i, c.ID, c.Node)
		}
	}
	if len(s.Nodes) != m.Cfg.Nodes() {
		t.Fatalf("%d nodes in snapshot, want %d", len(s.Nodes), m.Cfg.Nodes())
	}
	var ops, dirOccupancy uint64
	for i, n := range s.Nodes {
		if n.Node != i {
			t.Errorf("Nodes[%d] is node %d", i, n.Node)
		}
		dirOccupancy += n.Directory.OccupancyCycles
		switch m.Cfg.Backend {
		case config.BackendAMO:
			if n.Sync != nil || n.DSM != nil {
				t.Errorf("amo node %d carries a Sync or DSM section: %+v", i, n)
			}
			ops += n.AMU.Ops
		case config.BackendSynCron:
			if n.Sync == nil || n.AMU != (metrics.AMUStats{}) || n.DSM != nil {
				t.Fatalf("syncron node %d: want Directory and Sync alone, got %+v", i, n)
			}
			ops += n.Sync.Ops
		case config.BackendDSM:
			if n.DSM == nil || n.Directory != (metrics.DirectoryStats{}) || n.AMU != (metrics.AMUStats{}) || n.Sync != nil {
				t.Fatalf("dsm node %d: want DSM alone, got %+v", i, n)
			}
			ops += n.DSM.RemoteAtomics
		default:
			t.Fatalf("unknown backend %v", m.Cfg.Backend)
		}
	}
	if ops != atomics {
		t.Errorf("%v units counted %d atomics, want %d", m.Cfg.Backend, ops, atomics)
	}
	if coherent := m.Cfg.Backend != config.BackendDSM; coherent != (dirOccupancy > 0) {
		t.Errorf("%v directories report %d occupancy cycles", m.Cfg.Backend, dirOccupancy)
	}
	if s.Memory == (metrics.MemoryStats{}) || s.Network.Messages == 0 {
		t.Errorf("memory %+v or network %+v section is empty", s.Memory, s.Network)
	}
}
