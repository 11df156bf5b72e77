package amosim

import (
	"runtime"
	"slices"
	"time"
)

// The hot-path bench document: one "op" is the same workload as
// BenchmarkSimulatorThroughput — build a fresh 32-processor machine and
// run the flat AMO barrier for its episode budget — so the checked-in
// BENCH_hotpath.json tracks the event kernel's throughput and allocation
// trajectory release over release.

// hotpathDoc is the BENCH_hotpath.json document.
type hotpathDoc struct {
	Generator string

	// Workload identity: the BenchmarkSimulatorThroughput configuration.
	Procs     int
	Mechanism string
	Episodes  int
	Warmup    int

	// Deterministic outputs of one op.
	SimCycles             uint64  // measurement-window simulated cycles
	CyclesPerBarrier      float64 // simulated cost per barrier episode
	NetMessagesPerBarrier float64
	EventsPerRun          uint64 // kernel events dispatched by the simulation phase

	// Host measurements. The per-op figures are the median of
	// hotpathBatches timed batches.
	HostIterations  int     // timed ops across all batches
	HostNsPerOp     float64 `gate:"max"` // wall-clock nanoseconds per op
	HostAllocsPerOp float64 `gate:"max"` // heap allocations per op (construction + run)
	HostBytesPerOp  float64 `gate:"max"` // heap bytes per op
	// HostSimAllocs counts heap allocations during the simulation phase
	// alone (machine construction excluded) of one instrumented run: the
	// steady-state figure the event/message pooling drives toward zero.
	HostSimAllocs uint64
}

// The timed loop runs in batches and reports the median batch, so one
// batch disturbed by the host does not move the gated figures.
const (
	hotpathBatches   = 5
	hotpathBatchSize = 10
)

// benchHotpath measures the hot path.
func benchHotpath() (hotpathDoc, error) {
	cfg, mech := DefaultConfig(32), AMO
	bopts := BarrierOptions{Episodes: 4, Warmup: 1}

	// Deterministic section: one reference run plus one instrumented run
	// with kernel metrics enabled (the opt-in Kernel snapshot section).
	r, err := RunBarrier(cfg, mech, bopts)
	if err != nil {
		return hotpathDoc{}, err
	}
	events, simAllocs, err := hotpathKernelRun(cfg, mech, bopts)
	if err != nil {
		return hotpathDoc{}, err
	}

	// Host section: warm once, then time each batch with the allocator
	// counters bracketing it.
	if _, err := RunBarrier(cfg, mech, bopts); err != nil {
		return hotpathDoc{}, err
	}
	var ns, allocs, bytes [hotpathBatches]float64
	for b := range ns {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		start := time.Now()
		for i := 0; i < hotpathBatchSize; i++ {
			if _, err := RunBarrier(cfg, mech, bopts); err != nil {
				return hotpathDoc{}, err
			}
		}
		elapsed := time.Since(start)
		runtime.ReadMemStats(&after)
		ns[b] = float64(elapsed.Nanoseconds()) / hotpathBatchSize
		allocs[b] = float64(after.Mallocs-before.Mallocs) / hotpathBatchSize
		bytes[b] = float64(after.TotalAlloc-before.TotalAlloc) / hotpathBatchSize
	}

	return hotpathDoc{
		Generator: "amotables -bench hotpath",
		Procs:     cfg.Processors,
		Mechanism: mech.String(),
		Episodes:  bopts.Episodes,
		Warmup:    bopts.Warmup,

		SimCycles:             r.TotalCycles,
		CyclesPerBarrier:      r.CyclesPerBarrier,
		NetMessagesPerBarrier: r.NetMessagesPerBarrier,
		EventsPerRun:          events,

		HostIterations:  hotpathBatches * hotpathBatchSize,
		HostNsPerOp:     median(ns[:]),
		HostAllocsPerOp: median(allocs[:]),
		HostBytesPerOp:  median(bytes[:]),
		HostSimAllocs:   simAllocs,
	}, nil
}

// median returns the middle element of an odd-length sample, sorting it
// in place.
func median(xs []float64) float64 {
	slices.Sort(xs)
	return xs[len(xs)/2]
}

// hotpathKernelRun executes the benchmark workload on a machine with
// kernel metrics enabled and returns the simulation phase's dispatched
// event count (deterministic) and heap allocation count (host gauge),
// both from the Kernel snapshot diff.
func hotpathKernelRun(cfg Config, mech Mechanism, bopts BarrierOptions) (events, simAllocs uint64, err error) {
	bopts = bopts.WithDefaults()
	m, err := NewMachine(cfg)
	if err != nil {
		return 0, 0, err
	}
	defer m.Shutdown()
	m.EnableKernelMetrics()
	b := NewBarrier(m, mech, cfg.Processors, 0)
	m.OnAllCPUs(func(c *CPU) {
		for e := 0; e < bopts.Warmup+bopts.Episodes; e++ {
			c.Think(uint64((c.ID()*37 + e*13) % bopts.WorkCycles))
			b.Wait(c)
		}
	})
	before := m.Metrics()
	if _, err := m.Run(); err != nil {
		return 0, 0, err
	}
	d := m.Metrics().Diff(before)
	return d.Kernel.EventsExecuted, d.Kernel.HostMallocs, nil
}
