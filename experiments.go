package amosim

import (
	"fmt"

	"amosim/internal/chaos"
	"amosim/internal/machine"
	"amosim/internal/proc"
	"amosim/internal/sweep"
	"amosim/internal/syncprim"
)

// Experiment methodology shared by all runners: each run is two machine
// phases on one warm machine. The warm-up phase (populating caches, the AMU
// cache and the directory) runs to quiescence, the machine is snapshotted,
// the measured phase runs to quiescence, and the machine is snapshotted
// again. Both snapshots observe a fully drained machine, so the measured
// window covers whole synchronization episodes regardless of release-wave
// skew — and the methodology is identical on the sequential and parallel
// event kernels, where a mid-run snapshot would race with other shards.
// Every reported figure is derived from the snapshots' Diff, whose cycle
// attribution must conserve (checked on every run).

// RunConfig carries the cross-cutting run selectors shared by every
// experiment runner: the memory-system backend, the event kernel, and the
// fault-injection plan. It is embedded in BarrierOptions, LockOptions and
// WorkloadExperiment, so every runner resolves overrides and renders sweep
// labels in exactly one place.
type RunConfig struct {
	// Backend, when non-zero, overrides the config's memory-system backend
	// for the run (the zero value, BackendAMO, defers to the config). It
	// participates in the sweep cache key through both the config and
	// options digests, so cells never alias across backends.
	Backend Backend
	// Engine, when non-empty, overrides the config's event kernel ("seq" or
	// "parallel"); Shards, when non-zero, overrides the shard count of the
	// parallel kernel. Results are byte-identical across kernels and shard
	// counts — these knobs trade host wall-clock, never simulated behaviour.
	Engine string
	Shards int
	// ChaosSeed and ChaosLevel enable deterministic fault injection with
	// runtime invariant oracles (see internal/chaos). Level 0 is off; with
	// a level set, the run fails on any protocol-invariant violation.
	ChaosSeed  uint64
	ChaosLevel int
}

// apply resolves the non-zero overrides onto a config.
func (rc RunConfig) apply(cfg Config) Config {
	if rc.Backend != BackendAMO {
		cfg.Backend = rc.Backend
	}
	if rc.Engine != "" {
		cfg.Engine = rc.Engine
	}
	if rc.Shards != 0 {
		cfg.Shards = rc.Shards
	}
	return cfg
}

// BarrierOptions tunes RunBarrier.
type BarrierOptions struct {
	// Episodes is the measured episode count (default 8).
	Episodes int
	// Warmup episodes precede measurement (default 2).
	Warmup int
	// Branching > 0 selects a two-level combining tree with that factor.
	Branching int
	// ClusterSize sets the cluster size (in CPUs) of the hierarchical
	// combining barrier used when the mechanism is Combining; 0 derives it
	// from the machine topology (see syncprim.CombiningClusterSize).
	ClusterSize int
	// WorkCycles is the deterministic per-episode local work ceiling used
	// to stagger arrivals (default 96).
	WorkCycles int
	// Home is the barrier variable's home node (default 0).
	Home int
	// NaiveConventional selects the Figure 3(a) coding for conventional
	// mechanisms: spin on the barrier variable itself (ablation A5).
	NaiveConventional bool
	// AMOUpdateAlways pushes a word update on every amo.inc instead of
	// only at the test value (ablation A2). Flat barriers only.
	AMOUpdateAlways bool
	// RunConfig selects backend, event kernel and fault injection.
	RunConfig
}

// WithDefaults returns the options with the module's convention applied
// (see internal/sweep.DefaultInt): zero-valued fields select their
// documented defaults. Sweep points digest the defaulted form, so an
// explicitly-spelled default and an elided one address the same cache
// entry.
func (o BarrierOptions) WithDefaults() BarrierOptions {
	o.Episodes = sweep.DefaultInt(o.Episodes, 8)
	o.Warmup = sweep.DefaultInt(o.Warmup, 2)
	o.WorkCycles = sweep.DefaultInt(o.WorkCycles, 96)
	return o
}

// RunBarrier measures a barrier implementation on a fresh machine and
// returns per-episode cycle and traffic figures.
func RunBarrier(cfg Config, mech Mechanism, opts BarrierOptions) (BarrierResult, error) {
	opts = opts.WithDefaults()
	cfg = opts.apply(cfg)
	m, err := machine.New(cfg)
	if err != nil {
		return BarrierResult{}, err
	}
	defer m.Shutdown()
	orc := chaos.Arm(m, chaos.Plan{Seed: opts.ChaosSeed, Level: opts.ChaosLevel})

	var wait func(c *proc.CPU)
	if mech == Combining {
		// The Combining class is inherently hierarchical: it always runs
		// as the flat-combining cluster barrier (Branching is ignored).
		cb := syncprim.NewCombiningBarrier(m, mech, cfg.Processors, opts.Home, opts.ClusterSize)
		wait = cb.Wait
	} else if opts.Branching > 0 {
		tb := syncprim.NewTreeBarrier(m, mech, cfg.Processors, opts.Branching)
		wait = tb.Wait
	} else {
		b := syncprim.NewBarrier(m, mech, cfg.Processors, opts.Home)
		b.SetNaiveConventional(opts.NaiveConventional)
		b.SetAMOUpdateAlways(opts.AMOUpdateAlways)
		wait = b.Wait
	}

	work := func(c *proc.CPU, e int) {
		c.Think(uint64((c.ID()*37 + e*13) % opts.WorkCycles))
	}
	m.OnAllCPUs(func(c *proc.CPU) {
		for e := 0; e < opts.Warmup; e++ {
			work(c, e)
			wait(c)
		}
	})
	if _, err := m.Run(); err != nil {
		return BarrierResult{}, fmt.Errorf("amosim: barrier warmup (%v, %d procs): %w", mech, cfg.Processors, err)
	}
	startSnap := m.Metrics()
	m.OnAllCPUs(func(c *proc.CPU) {
		for e := 0; e < opts.Episodes; e++ {
			work(c, opts.Warmup+e)
			wait(c)
		}
	})
	if _, err := m.Run(); err != nil {
		return BarrierResult{}, fmt.Errorf("amosim: barrier run (%v, %d procs): %w", mech, cfg.Processors, err)
	}
	if err := orc(); err != nil {
		return BarrierResult{}, fmt.Errorf("amosim: barrier run (%v, %d procs, chaos seed %d level %d): %w",
			mech, cfg.Processors, opts.ChaosSeed, opts.ChaosLevel, err)
	}
	win := m.Metrics().Diff(startSnap)
	if err := win.CheckConservation(); err != nil {
		return BarrierResult{}, fmt.Errorf("amosim: barrier run (%v, %d procs): %w", mech, cfg.Processors, err)
	}
	window := float64(win.Cycle)
	eps := float64(opts.Episodes)
	return BarrierResult{
		Mechanism:             mech.String(),
		Procs:                 cfg.Processors,
		Episodes:              opts.Episodes,
		Branching:             opts.Branching,
		TotalCycles:           win.Cycle,
		CyclesPerBarrier:      window / eps,
		CyclesPerProc:         window / eps / float64(cfg.Processors),
		NetMessagesPerBarrier: float64(win.Network.Messages) / eps,
		ByteHopsPerBarrier:    float64(win.Network.ByteHops) / eps,
		Metrics:               win,
	}, nil
}

// TreeBranchings lists the branching factors swept by BestTreeBarrier for a
// given processor count: powers of two from 2 up to procs/2.
func TreeBranchings(procs int) []int {
	var out []int
	for b := 2; b <= procs/2; b *= 2 {
		out = append(out, b)
	}
	return out
}

// BestTreeBarrier sweeps branching factors and returns the fastest result,
// mirroring the paper's "we try all possible tree branching factors and use
// the one that delivers the best performance". The candidate branchings run
// on the sweep engine, so they execute in parallel and repeated calls (a
// tree sweep after a figure that already tried the same trees) are served
// from the result cache. Reduction is in expansion order with a strict
// less-than, so the selected tree is independent of worker count.
func BestTreeBarrier(cfg Config, mech Mechanism, opts BarrierOptions) (BarrierResult, error) {
	branchings := TreeBranchings(cfg.Processors)
	pts := make([]SweepPoint, len(branchings))
	for i, b := range branchings {
		o := opts
		o.Branching = b
		pts[i] = BarrierPoint(cfg, mech, o)
	}
	vals, err := runPoints(pts)
	if err != nil {
		return BarrierResult{}, err
	}
	var best BarrierResult
	for _, r := range sweepValues[BarrierResult](vals) {
		if best.TotalCycles == 0 || r.CyclesPerBarrier < best.CyclesPerBarrier {
			best = r
		}
	}
	return best, nil
}

// LockKind selects the lock algorithm. It lives in internal/syncprim next
// to the lock implementations; these aliases keep the public experiment API
// unchanged.
type LockKind = syncprim.LockKind

// Lock algorithms: ticket and array are the paper's Table 4; MCS is this
// reproduction's extension baseline (the strongest conventional queue
// lock).
const (
	Ticket = syncprim.Ticket
	Array  = syncprim.Array
	MCS    = syncprim.MCS
	// Cohort is the hierarchical combining (cohort) lock, the Combining
	// mechanism class's lock algorithm.
	Cohort = syncprim.Cohort
)

// ParseLockKind parses a lock-algorithm name, case-insensitively. It
// round-trips with String: ParseLockKind(k.String()) == k for every kind.
func ParseLockKind(s string) (LockKind, error) {
	return syncprim.ParseLockKind(s)
}

// LockOptions tunes RunLock.
type LockOptions struct {
	// Acquires per CPU in the measured window (default 4).
	Acquires int
	// CSCycles is the critical-section length (default 25).
	CSCycles int
	// GapCycles is the non-critical work ceiling between acquires
	// (default 64).
	GapCycles int
	// Home is the lock's home node (default 0).
	Home int
	// ClusterSize sets the cluster size (in CPUs) of the Cohort combining
	// lock; 0 derives it from the machine topology.
	ClusterSize int
	// CombinePasses bounds consecutive local handoffs of the Cohort lock
	// before it must release the central lock (default 8).
	CombinePasses int
	// RunConfig selects backend, event kernel and fault injection.
	RunConfig
}

// WithDefaults returns the options with the module's convention applied
// (see BarrierOptions.WithDefaults).
func (o LockOptions) WithDefaults() LockOptions {
	o.Acquires = sweep.DefaultInt(o.Acquires, 4)
	o.CSCycles = sweep.DefaultInt(o.CSCycles, 25)
	o.GapCycles = sweep.DefaultInt(o.GapCycles, 64)
	o.CombinePasses = sweep.DefaultInt(o.CombinePasses, 8)
	return o
}

// RunLock measures a lock-passing microbenchmark: every CPU performs
// Acquires acquire/CS/release rounds; the result reports cycles per lock
// passing and traffic in the measured window.
func RunLock(cfg Config, kind LockKind, mech Mechanism, opts LockOptions) (LockResult, error) {
	opts = opts.WithDefaults()
	cfg = opts.apply(cfg)
	m, err := machine.New(cfg)
	if err != nil {
		return LockResult{}, err
	}
	defer m.Shutdown()
	orc := chaos.Arm(m, chaos.Plan{Seed: opts.ChaosSeed, Level: opts.ChaosLevel})

	var acquire func(c *proc.CPU) func()
	switch kind {
	case Ticket:
		l := syncprim.NewTicketLock(m, mech, opts.Home)
		acquire = func(c *proc.CPU) func() {
			t := l.Acquire(c)
			return func() { l.Release(c, t) }
		}
	case Array:
		l := syncprim.NewArrayLock(m, mech, cfg.Processors, opts.Home)
		acquire = func(c *proc.CPU) func() {
			s := l.Acquire(c)
			return func() { l.Release(c, s) }
		}
	case MCS:
		l := syncprim.NewMCSLock(m, mech, cfg.Processors, opts.Home)
		acquire = func(c *proc.CPU) func() {
			l.Acquire(c)
			return func() { l.Release(c) }
		}
	case Cohort:
		l := syncprim.NewCombiningLock(m, mech, cfg.Processors, opts.Home,
			opts.ClusterSize, opts.CombinePasses)
		acquire = func(c *proc.CPU) func() {
			l.Acquire(c)
			return func() { l.Release(c) }
		}
	default:
		return LockResult{}, fmt.Errorf("amosim: unknown lock kind %d", int(kind))
	}

	// Warmup phase: one uncontended-ish pass each. The phase boundary is
	// the alignment point — every CPU restarts the measured phase at the
	// same quiescent instant, so no explicit alignment barrier is needed.
	m.OnAllCPUs(func(c *proc.CPU) {
		release := acquire(c)
		release()
	})
	if _, err := m.Run(); err != nil {
		return LockResult{}, fmt.Errorf("amosim: lock warmup (%v %v, %d procs): %w", kind, mech, cfg.Processors, err)
	}
	startSnap := m.Metrics()
	m.OnAllCPUs(func(c *proc.CPU) {
		for i := 0; i < opts.Acquires; i++ {
			c.Think(uint64((c.ID()*29 + i*17) % opts.GapCycles))
			release := acquire(c)
			c.Think(uint64(opts.CSCycles))
			release()
		}
	})
	if _, err := m.Run(); err != nil {
		return LockResult{}, fmt.Errorf("amosim: lock run (%v %v, %d procs): %w", kind, mech, cfg.Processors, err)
	}
	if err := orc(); err != nil {
		return LockResult{}, fmt.Errorf("amosim: lock run (%v %v, %d procs, chaos seed %d level %d): %w",
			kind, mech, cfg.Processors, opts.ChaosSeed, opts.ChaosLevel, err)
	}
	win := m.Metrics().Diff(startSnap)
	if err := win.CheckConservation(); err != nil {
		return LockResult{}, fmt.Errorf("amosim: lock run (%v %v, %d procs): %w", kind, mech, cfg.Processors, err)
	}
	window := float64(win.Cycle)
	passes := float64(cfg.Processors * opts.Acquires)
	return LockResult{
		Mechanism:       mech.String(),
		Kind:            kind.String(),
		Procs:           cfg.Processors,
		Acquires:        opts.Acquires,
		TotalCycles:     win.Cycle,
		CyclesPerPass:   window / passes,
		NetMessages:     win.Network.Messages,
		ByteHops:        win.Network.ByteHops,
		MessagesPerPass: float64(win.Network.Messages) / passes,
		Metrics:         win,
	}, nil
}

// IncrementMessageCount reproduces the Figure 1 thought experiment: three
// CPUs on three distinct remote nodes each perform one barrier-arrival
// increment on a variable homed on a fourth node; the result is the number
// of one-way network messages the increments generate.
func IncrementMessageCount(mech Mechanism) (uint64, error) {
	cfg := DefaultConfig(8) // 4 nodes
	m, err := machine.New(cfg)
	if err != nil {
		return 0, err
	}
	defer m.Shutdown()
	count := m.AllocWord(0) // home node 0; participants on nodes 1..3
	if mech == syncprim.ActMsg {
		syncprim.RegisterHandlers(m)
	}
	participants := []int{2, 4, 6}
	for _, id := range participants {
		m.OnCPU(id, func(c *proc.CPU) {
			if mech == syncprim.AMO {
				c.AMOInc(count, uint64(len(participants)))
			} else {
				syncprim.FetchAdd(c, mech, count, 1)
			}
		})
	}
	// Home-node CPU 0 stays alive to serve active-message handlers.
	if mech == syncprim.ActMsg {
		m.OnCPU(0, func(c *proc.CPU) { c.Think(1) })
	}
	before := m.Metrics()
	if _, err := m.Run(); err != nil {
		return 0, err
	}
	return m.Metrics().Diff(before).Network.Messages, nil
}
