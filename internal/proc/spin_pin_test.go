package proc_test

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"amosim/internal/config"
	"amosim/internal/machine"
	"amosim/internal/proc"
)

var updateSpinGolden = flag.Bool("update-spin-golden", false, "rewrite testdata/spin_path.golden")

// spinPathRun is one run of the spin-path scenario: CPU 1 starts its AMO
// updates delay cycles later than the other CPUs act, so across the sweep
// its word updates wake CPU 0's spin loop at every point of the loop's
// re-check relative to the other CPUs' invalidations and active messages.
//
// CPU 0 caches a word of its own and spins first on a (until a >= 2) and
// then on b (until b == 7); it is also the home CPU that runs node 0's
// active-message handlers. The wakes it sees:
//   - CPU 1's first AMO fetch-and-add on a pushes a word update that
//     leaves the predicate false; its second satisfies it; its later ones
//     update a, which CPU 0 still caches while it spins on b;
//   - CPU 3's store to the other word invalidates a line the spin does
//     not watch;
//   - CPU 3's active-message call to node 0 arrives mid-spin, and CPU 0
//     serves it from the spin loop;
//   - CPU 3's first store to b invalidates the spun line and leaves the
//     predicate false after the reload, its second satisfies it. CPU 1's
//     updates of a land around these stores, so some sweep points
//     invalidate b while a wake's re-check sleeps on the reload's issue
//     latency (the lookup then misses) or on the spin check (the line is
//     then gone).
//
// CPU 2, node 1's home CPU, finishes at once and waits in ServeUntil,
// where the invalidation of the other word and CPU 1's active-message call
// wake it before the machine's Poke ends the phase.
func spinPathRun(t *testing.T, engine string, delay uint64) string {
	t.Helper()
	cfg := config.Default(4)
	if engine == "parallel" {
		cfg.Engine, cfg.Shards = "parallel", 2
	}
	m, err := machine.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Shutdown()
	tr := m.EnableTrace(1 << 16)
	a, b, other := m.AllocWord(1), m.AllocWord(1), m.AllocWord(0)
	am0, am1 := m.AllocWord(0), m.AllocWord(1)
	m.RegisterHandlerAll(1, func(c *proc.CPU, addr, arg uint64) uint64 {
		return c.Load(addr) + arg
	})
	var va, vb, r0, r1 uint64
	var spunAt uint64
	m.OnCPU(0, func(c *proc.CPU) {
		c.Load(other)
		va = c.SpinUntil(a, proc.AtLeast(2))
		vb = c.SpinUntil(b, proc.Equal(7))
		spunAt = uint64(c.Now())
	})
	m.OnCPU(1, func(c *proc.CPU) {
		c.Think(800)
		c.AMOFetchAdd(a, 1)
		c.Think(1400)
		c.AMOFetchAdd(a, 1)
		r1 = c.ActiveMessageCall(1, am1, 11)
		c.Think(400 + delay)
		for i := 0; i < 3; i++ {
			c.AMOFetchAdd(a, 1)
		}
	})
	m.OnCPU(2, func(c *proc.CPU) { c.Load(other) })
	m.OnCPU(3, func(c *proc.CPU) {
		c.Think(1200)
		c.Store(other, 1)
		r0 = c.ActiveMessageCall(1, am0, 5)
		c.Think(800)
		c.Store(b, 3)
		c.Think(300)
		c.Store(b, 7)
	})
	end, err := m.Run()
	if err != nil {
		t.Fatalf("%s delay %d: Run: %v", engine, delay, err)
	}
	var out strings.Builder
	trace := tr.String()
	fmt.Fprintf(&out, "delay=%d a=%d b=%d amsg=%d,%d spun=%d end=%d executed=%d trace=%d/%d/%x\n",
		delay, va, vb, r0, r1, spunAt, end, m.Eng.Executed(),
		len(tr.Records()), tr.Dropped(), sha256.Sum256([]byte(trace)))
	for _, cm := range m.Metrics().CPUs {
		cy, ca := cm.Cycles, cm.Cache
		fmt.Fprintf(&out, "  cpu%d compute=%d stall=%d spin=%d total=%d hits=%d misses=%d evictions=%d served=%d\n",
			cm.ID, cy.Compute, cy.MemoryStall, cy.SpinIdle, cy.Total, ca.Hits, ca.Misses, ca.Evictions, cm.Counters.AmsgServed)
	}
	return out.String()
}

// TestSpinPathPinned pins the spin and serve loops' every observable: the
// values each spin returns, when it returns, each CPU's cycle breakdown and
// cache counters, the kernel's event count and the network trace, on both
// kernels, across the spinPathRun sweep. The golden file was written by the
// loops as they were before line waits re-checked in event context.
func TestSpinPathPinned(t *testing.T) {
	var seq strings.Builder
	for delay := uint64(0); delay < 64; delay++ {
		s := spinPathRun(t, "seq", delay)
		if p := spinPathRun(t, "parallel", delay); p != s {
			t.Fatalf("delay %d: parallel kernel differs from sequential:\n%s\nvs\n%s", delay, p, s)
		}
		seq.WriteString(s)
	}
	const golden = "testdata/spin_path.golden"
	if *updateSpinGolden {
		if err := os.WriteFile(golden, []byte(seq.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got := seq.String(); got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := range gl {
			if i >= len(wl) || gl[i] != wl[i] {
				t.Fatalf("line %d differs from %s:\n got %s\nwant %s", i+1, golden, gl[i], wl[min(i, len(wl)-1)])
			}
		}
		t.Fatalf("output is a prefix of %s", golden)
	}
}
