// Package workload implements small parallel applications on the simulated
// machine — the kind of OpenMP-style phased programs whose barrier and lock
// costs motivate the paper. Each workload distributes real data across node
// memories, runs a parallel kernel with synchronization supplied by a
// chosen mechanism, and verifies the result against a sequential oracle,
// so a synchronization bug shows up as a wrong answer, not just odd timing.
package workload

import (
	"fmt"

	"amosim/internal/chaos"
	"amosim/internal/config"
	"amosim/internal/machine"
	"amosim/internal/memsys"
	"amosim/internal/metrics"
	"amosim/internal/proc"
	"amosim/internal/sim"
	"amosim/internal/syncprim"
)

// Result reports a verified workload run.
type Result struct {
	Name      string
	Mechanism string
	Procs     int
	Cycles    uint64
	// NetMessages is total network traffic for the run.
	NetMessages uint64
	// Metrics is the whole-run snapshot (taken after the machine quiesced);
	// its cycle attribution conserves exactly.
	Metrics metrics.Snapshot
}

// finish assembles the Result from the machine's end-of-run snapshot,
// enforcing the cycle-attribution conservation invariant.
func finish(m *machine.Machine, name string, mech syncprim.Mechanism, cycles sim.Time) (Result, error) {
	snap := m.Metrics()
	if err := snap.CheckConservation(); err != nil {
		return Result{}, fmt.Errorf("workload: %s (%v): %w", name, mech, err)
	}
	return Result{
		Name: name, Mechanism: mech.String(), Procs: len(m.CPUs),
		Cycles: uint64(cycles), NetMessages: snap.Network.Messages,
		Metrics: snap,
	}, nil
}

// Stencil runs iters sweeps of a 1-D three-point integer stencil over
// procs*chunk words, one chunk per CPU on its own node, with a barrier
// between sweeps (and between the read and write halves of each sweep, as
// the data dependence requires). Boundary reads reach into neighbours'
// memory, so the kernel generates real cross-node coherence traffic.
func Stencil(cfg config.Config, mech syncprim.Mechanism, chunk, iters int) (Result, error) {
	return runStencil(cfg, mech, chunk, iters, RunConfig{})
}

func runStencil(cfg config.Config, mech syncprim.Mechanism, chunk, iters int, rc RunConfig) (Result, error) {
	if chunk < 1 || iters < 1 {
		return Result{}, fmt.Errorf("workload: stencil needs chunk, iters >= 1 (got %d, %d)", chunk, iters)
	}
	m, err := machine.New(cfg)
	if err != nil {
		return Result{}, err
	}
	defer m.Shutdown()
	orc := chaos.Arm(m, rc.plan())

	procs := cfg.Processors
	n := procs * chunk
	cur := allocArray(m, procs, chunk)
	next := allocArray(m, procs, chunk)

	// Initialize cur[i] = i*i mod 97 directly in memory (pre-run state).
	init := make([]int64, n)
	for i := range init {
		init[i] = int64(i * i % 97)
		m.Mem.WriteWord(cur[i], uint64(init[i]))
	}
	want := stencilOracle(init, iters)

	b := syncprim.NewBarrier(m, mech, procs, 0)
	m.OnAllCPUs(func(c *proc.CPU) {
		lo := c.ID() * chunk
		hi := lo + chunk
		src, dst := cur, next
		for it := 0; it < iters; it++ {
			for i := lo; i < hi; i++ {
				sum := int64(c.Load(src[i]))
				if i > 0 {
					sum += int64(c.Load(src[i-1]))
				}
				if i < n-1 {
					sum += int64(c.Load(src[i+1]))
				}
				c.Store(dst[i], uint64(sum/3))
			}
			b.Wait(c) // writers done before anyone reads dst as src
			src, dst = dst, src
		}
	})
	cycles, err := m.Run()
	if err != nil {
		return Result{}, fmt.Errorf("workload: stencil (%v): %w", mech, err)
	}
	if err := orc(); err != nil {
		return Result{}, fmt.Errorf("workload: stencil (%v, chaos seed %d level %d): %w", mech, rc.ChaosSeed, rc.ChaosLevel, err)
	}

	final := cur
	if iters%2 == 1 {
		final = next
	}
	for i := 0; i < n; i++ {
		got := int64(readWord(m, final[i]))
		if got != want[i] {
			return Result{}, fmt.Errorf("workload: stencil (%v): cell %d = %d, want %d", mech, i, got, want[i])
		}
	}
	return finish(m, "stencil", mech, cycles)
}

func stencilOracle(cur []int64, iters int) []int64 {
	n := len(cur)
	src := append([]int64(nil), cur...)
	dst := make([]int64, n)
	for it := 0; it < iters; it++ {
		for i := 0; i < n; i++ {
			sum := src[i]
			if i > 0 {
				sum += src[i-1]
			}
			if i < n-1 {
				sum += src[i+1]
			}
			dst[i] = sum / 3
		}
		src, dst = dst, src
	}
	return src
}

// PrefixSum computes an inclusive prefix sum over one value per CPU with
// the Hillis–Steele algorithm: log2(P) rounds, each bounded by barriers.
func PrefixSum(cfg config.Config, mech syncprim.Mechanism) (Result, error) {
	return runPrefixSum(cfg, mech, RunConfig{})
}

func runPrefixSum(cfg config.Config, mech syncprim.Mechanism, rc RunConfig) (Result, error) {
	m, err := machine.New(cfg)
	if err != nil {
		return Result{}, err
	}
	defer m.Shutdown()
	orc := chaos.Arm(m, rc.plan())
	procs := cfg.Processors

	x := make([]uint64, procs)
	for p := range x {
		x[p] = m.AllocWord(p / cfg.ProcsPerNode)
		m.Mem.WriteWord(x[p], uint64(3*p+1)) // arbitrary distinct values
	}

	b := syncprim.NewBarrier(m, mech, procs, 0)
	m.OnAllCPUs(func(c *proc.CPU) {
		p := c.ID()
		for d := 1; d < procs; d *= 2 {
			var t uint64
			if p >= d {
				t = c.Load(x[p-d]) + c.Load(x[p])
			}
			b.Wait(c) // everyone has read before anyone writes
			if p >= d {
				c.Store(x[p], t)
			}
			b.Wait(c) // everyone has written before the next round reads
		}
	})
	cycles, err := m.Run()
	if err != nil {
		return Result{}, fmt.Errorf("workload: prefix sum (%v): %w", mech, err)
	}
	if err := orc(); err != nil {
		return Result{}, fmt.Errorf("workload: prefix sum (%v, chaos seed %d level %d): %w", mech, rc.ChaosSeed, rc.ChaosLevel, err)
	}

	var running uint64
	for p := 0; p < procs; p++ {
		running += uint64(3*p + 1)
		if got := readWord(m, x[p]); got != running {
			return Result{}, fmt.Errorf("workload: prefix sum (%v): x[%d] = %d, want %d", mech, p, got, running)
		}
	}
	return finish(m, "prefixsum", mech, cycles)
}

// Histogram has every CPU classify items into shared bins, incrementing
// bin counters with the mechanism's atomic fetch-add — the fine-grained
// contended-counter pattern AMOs target. A final barrier closes the run.
func Histogram(cfg config.Config, mech syncprim.Mechanism, bins, itemsPerCPU int) (Result, error) {
	return runHistogram(cfg, mech, bins, itemsPerCPU, RunConfig{})
}

func runHistogram(cfg config.Config, mech syncprim.Mechanism, bins, itemsPerCPU int, rc RunConfig) (Result, error) {
	if bins < 1 || itemsPerCPU < 1 {
		return Result{}, fmt.Errorf("workload: histogram needs bins, items >= 1 (got %d, %d)", bins, itemsPerCPU)
	}
	m, err := machine.New(cfg)
	if err != nil {
		return Result{}, err
	}
	defer m.Shutdown()
	orc := chaos.Arm(m, rc.plan())
	procs := cfg.Processors

	binAddr := make([]uint64, bins)
	for i := range binAddr {
		binAddr[i] = m.AllocWord(i % cfg.Nodes())
	}
	want := make([]uint64, bins)
	key := func(cpu, item int) int { return (cpu*2654435761 + item*40503) % bins }
	for cpu := 0; cpu < procs; cpu++ {
		for it := 0; it < itemsPerCPU; it++ {
			want[key(cpu, it)]++
		}
	}

	b := syncprim.NewBarrier(m, mech, procs, 0)
	m.OnAllCPUs(func(c *proc.CPU) {
		for it := 0; it < itemsPerCPU; it++ {
			c.Think(40) // classify the item
			syncprim.FetchAdd(c, mech, binAddr[key(c.ID(), it)], 1)
		}
		b.Wait(c)
	})
	cycles, err := m.Run()
	if err != nil {
		return Result{}, fmt.Errorf("workload: histogram (%v): %w", mech, err)
	}
	if err := orc(); err != nil {
		return Result{}, fmt.Errorf("workload: histogram (%v, chaos seed %d level %d): %w", mech, rc.ChaosSeed, rc.ChaosLevel, err)
	}

	for i := range binAddr {
		if got := readWord(m, binAddr[i]); got != want[i] {
			return Result{}, fmt.Errorf("workload: histogram (%v): bin %d = %d, want %d", mech, i, got, want[i])
		}
	}
	return finish(m, "histogram", mech, cycles)
}

// allocArray lays out procs contiguous chunks, chunk words each, chunk p on
// CPU p's node. Words within a chunk share cache blocks (realistic array
// layout); chunks start block-aligned.
func allocArray(m *machine.Machine, procs, chunk int) []uint64 {
	addrs := make([]uint64, 0, procs*chunk)
	for p := 0; p < procs; p++ {
		base := m.Mem.Alloc(p/m.Cfg.ProcsPerNode, chunk*memsys.WordBytes, m.Cfg.BlockBytes)
		for i := 0; i < chunk; i++ {
			addrs = append(addrs, base+uint64(i*memsys.WordBytes))
		}
	}
	return addrs
}

// readWord returns the coherent value of a word after the machine has
// quiesced, whatever backend holds the authoritative copy (an AMU or sync
// engine's resident word, a Modified cache line, or memory).
func readWord(m *machine.Machine, addr uint64) uint64 {
	return m.ReadWordCoherent(addr)
}
