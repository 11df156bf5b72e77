package machine

import (
	"reflect"
	"testing"

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

// TestMetricsDoesNotPerturbRun pins the observer-effect guarantee: a run
// that takes snapshots finishes at exactly the same cycle, with exactly the
// same counters, as one that does not.
func TestMetricsDoesNotPerturbRun(t *testing.T) {
	run := func(observe bool) (sim.Time, any) {
		m := newMachine(t, 4)
		addr := m.AllocWord(0)
		m.OnAllCPUs(func(c *proc.CPU) {
			for i := 0; i < 3; i++ {
				c.Think(uint64(10 + c.ID()))
				c.AMOInc(addr, 0)
				if observe {
					m.Metrics()
				}
			}
		})
		at := mustRun(t, m)
		return at, m.Metrics()
	}
	atA, snapA := run(false)
	atB, snapB := run(true)
	if atA != atB {
		t.Fatalf("observed run finished at %d, unobserved at %d", atB, atA)
	}
	if !reflect.DeepEqual(snapA, snapB) {
		t.Fatalf("observed run diverged:\n%+v\n%+v", snapB, snapA)
	}
}
