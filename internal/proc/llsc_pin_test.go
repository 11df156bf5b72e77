package proc_test

import (
	"flag"
	"fmt"
	"strings"
	"testing"

	"amosim/internal/config"
	"amosim/internal/machine"
	"amosim/internal/proc"
	"amosim/internal/syncprim"
)

var updateLLSCGolden = flag.Bool("update-llsc-golden", false, "rewrite testdata/llsc_path.golden")

// scFailures renders each CPU's store-conditional failure count.
func scFailures(m *machine.Machine) string {
	var b strings.Builder
	b.WriteString("scf=")
	for i, c := range m.CPUs {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprint(&b, c.Stats().SCFailures)
	}
	return b.String()
}

// llscContendRun is one run of the contended fetch-add scenario on
// backend: each of the four CPUs, two per node, adds 1 six times to one
// word homed on node 1 with syncprim's LL/SC fetch-add, thinking a short
// per-CPU gap after each add. CPU 3 starts delay cycles late, so across
// the sweep its LL and SC replies land at every phase of the other CPUs'
// attempts: their issue latencies, their LL and SC reply waits and their
// backoffs. On dsm each LL is a remote load and each SC a remote
// compare-and-swap; on amo the loop fetches the block exclusive.
func llscContendRun(t *testing.T, engine string, backend config.Backend, delay uint64) string {
	t.Helper()
	cfg := config.Default(4)
	cfg.Backend = backend
	m, tr := newPinMachine(t, cfg, engine)
	w := m.AllocWord(1)
	var got [4][6]uint64
	for id := range got {
		m.OnCPU(id, func(c *proc.CPU) {
			start := uint64(13 * id)
			if id == 3 {
				start = delay
			}
			c.Think(start)
			for i := range got[id] {
				got[id][i] = syncprim.FetchAdd(c, syncprim.LLSC, w, 1)
				c.Think(uint64(10 + 5*id))
			}
		})
	}
	return pinnedRun(t, m, tr, func() string {
		return fmt.Sprintf("%v contend delay=%d got=%v %s", backend, delay, got, scFailures(m))
	})
}

// llscMCSRun is one run of the MCS scenario on dsm: each CPU takes an
// LL/SC MCS lock twice, incrementing a shared word under it, so the
// acquire's swap and the release's compare-and-swap are LL/SC loops on
// remote memory. CPU 3 starts delay cycles late. Across the sweep the
// release's compare-and-swap both resets the tail and fails, its LL
// finding that a successor has swapped itself in, or its SC losing to
// the successor's swap.
func llscMCSRun(t *testing.T, engine string, delay uint64) string {
	t.Helper()
	cfg := config.Default(4)
	cfg.Backend = config.BackendDSM
	m, tr := newPinMachine(t, cfg, engine)
	l := syncprim.NewMCSLock(m, syncprim.LLSC, 4, 1)
	shared := m.AllocWord(0)
	var seen [4][2]uint64
	for id := range seen {
		m.OnCPU(id, func(c *proc.CPU) {
			start := uint64(150 * id)
			if id == 3 {
				start = delay
			}
			c.Think(start)
			for i := range seen[id] {
				l.Acquire(c)
				seen[id][i] = c.Load(shared)
				c.Store(shared, seen[id][i]+1)
				l.Release(c)
				c.Think(uint64(200 + 90*id))
			}
		})
	}
	return pinnedRun(t, m, tr, func() string {
		return fmt.Sprintf("dsm mcs delay=%d seen=%v %s", delay, seen, scFailures(m))
	})
}

// llscHandlerRun is one run of the handler scenario on dsm. CPU 0, node
// 0's home CPU, starts an active-message call to CPU 2 at cycle
// llscHandlerCallAt plus delay and waits in it; CPU 2 serves the call at
// once, so the call's ack and reply reach CPU 0 a fixed time after its
// start, the reply a handler latency after the ack. Meanwhile CPU 3's
// call reaches CPU 0 at a fixed cycle, and CPU 0 serves it from its own
// call's wait: its handler does an LL/SC fetch-add on a word of node 0.
// Remote accesses and handler invocations are cheap here, so across the
// sweep the ack and the reply each land before the handler's LL is sent,
// in its LL reply wait, in its SC reply wait and after it commits, and
// each reply that lands in a wait is of another kind than the one the wait
// takes.
func llscHandlerRun(t *testing.T, engine string, delay uint64) string {
	t.Helper()
	cfg := config.Default(4)
	cfg.Backend = config.BackendDSM
	cfg.DSMRemoteCycles = 100
	cfg.ActMsgInvokeCycles = 20
	m, tr := newPinMachine(t, cfg, engine)
	w, am0, am1 := m.AllocWord(0), m.AllocWord(0), m.AllocWord(1)
	m.RegisterHandlerAll(1, func(c *proc.CPU, addr, arg uint64) uint64 { return arg + 1 })
	m.RegisterHandlerAll(2, func(c *proc.CPU, addr, arg uint64) uint64 {
		return syncprim.FetchAdd(c, syncprim.LLSC, w, arg)
	})
	var r0, r3 uint64
	m.OnCPU(0, func(c *proc.CPU) {
		c.Think(llscHandlerCallAt + delay)
		r0 = c.ActiveMessageCall(1, am1, 5)
	})
	m.OnCPU(2, func(c *proc.CPU) {})
	m.OnCPU(3, func(c *proc.CPU) {
		c.Think(600)
		r3 = c.ActiveMessageCall(2, am0, 11)
	})
	return pinnedRun(t, m, tr, func() string {
		return fmt.Sprintf("dsm handler delay=%d amsg=%d,%d %s", delay, r0, r3, scFailures(m))
	})
}

// The handler scenario's sweep: CPU 0 starts its call at
// llscHandlerCallAt plus each delay below llscHandlerDelays. The call's
// ack lands in the handler's LL reply wait at delays 20 to 210 and in its
// SC reply wait at 213 to 343; the reply lands in the LL wait at 80 to
// 150 and in the SC wait at 153 to 283.
const (
	llscHandlerCallAt = 350
	llscHandlerDelays = 354
)

// TestLLSCPathPinned pins the LL/SC retry loop's every observable: the
// words each loop returns, the end cycle, the kernel's event count, the
// network trace, and each CPU's cycle breakdown, cache counters and SC
// failures, on both kernels, across four sweeps: the contended fetch-add
// on amo and on dsm, the MCS lock on dsm and the handler scenario. The
// golden file was written by the loop as it ran before the remote loop
// moved into event context.
func TestLLSCPathPinned(t *testing.T) {
	var seq strings.Builder
	sweep := func(n, stride uint64, run func(engine string, delay uint64) string) {
		for i := uint64(0); i < n; i++ {
			seq.WriteString(bothKernels(t, func(engine string) string { return run(engine, i*stride) }))
		}
	}
	sweep(64, 7, func(engine string, delay uint64) string {
		return llscContendRun(t, engine, config.BackendAMO, delay)
	})
	sweep(64, 73, func(engine string, delay uint64) string {
		return llscContendRun(t, engine, config.BackendDSM, delay)
	})
	sweep(64, 37, func(engine string, delay uint64) string { return llscMCSRun(t, engine, delay) })
	sweep(llscHandlerDelays, 1, func(engine string, delay uint64) string { return llscHandlerRun(t, engine, delay) })
	matchGolden(t, "testdata/llsc_path.golden", *updateLLSCGolden, seq.String())
}
