package amosim

import (
	"encoding/json"
	"fmt"
	"runtime"
	"slices"
	"time"

	"amosim/internal/machine"
	"amosim/internal/sim"
)

// The parallel-kernel bench document: one "op" runs the flat AMO barrier
// on a 1024-processor machine — the scale the crossover sweeps need and
// the sequential kernel makes painful — once on each kernel. Its
// deterministic fields (simulated cycles, per-barrier cost, dispatched
// events, lookahead window, per-shard event counts, window statistics and
// the speedup ceiling they imply) are identical across hosts; the first
// three are also identical between kernels: cross-kernel equivalence
// evidence. Host* fields record the wall-clock ratio on the generating
// host, ungated.

// pdesDoc is the BENCH_pdes.json document.
type pdesDoc struct {
	Generator string

	// Workload identity.
	Procs     int
	Mechanism string
	Episodes  int
	Warmup    int
	Shards    int

	// Deterministic outputs, identical on every host.
	SimCycles        uint64  // measurement-window simulated cycles
	CyclesPerBarrier float64 // simulated cost per barrier episode
	pdesKernel

	// Host measurements.
	HostCPUs       int // runtime.NumCPU() on the generating host
	HostIterations int // timed ops per kernel behind the averages below
	HostSeqNsPerOp float64
	HostParNsPerOp float64
	HostSpeedup    float64 // seq/par wall-clock ratio
}

// pdesKernel is the parallel kernel's side of the document, from the
// simulation phase of one run.
type pdesKernel struct {
	EventsPerRun uint64 // kernel events dispatched, the same on both kernels
	WindowCycles uint64 // conservative lookahead width (min cross-shard latency)
	ShardEvents  []uint64
	Windows      uint64  // window boundaries run
	RankedPushes uint64  // push records those boundaries ranked
	Ceiling      float64 // EventsPerRun / max ShardEvents: the speedup bound
}

const (
	pdesShards     = 8
	pdesIterations = 3 // timed ops per kernel; one op is ~100ms at this scale
)

// benchPdes measures both kernels on the pdes workload.
func benchPdes() (pdesDoc, error) {
	cfg, mech := DefaultConfig(1024), AMO
	bopts := BarrierOptions{Episodes: 4, Warmup: 1}
	pcfg := cfg
	pcfg.Engine = "parallel"
	pcfg.Shards = pdesShards

	// Equivalence section: the full result documents must match byte for
	// byte before any timing is worth reporting.
	seqR, err := RunBarrier(cfg, mech, bopts)
	if err != nil {
		return pdesDoc{}, err
	}
	parR, err := RunBarrier(pcfg, mech, bopts)
	if err != nil {
		return pdesDoc{}, err
	}
	seqJSON, err := json.Marshal(seqR)
	if err != nil {
		return pdesDoc{}, err
	}
	parJSON, err := json.Marshal(parR)
	if err != nil {
		return pdesDoc{}, err
	}
	if string(seqJSON) != string(parJSON) {
		return pdesDoc{}, fmt.Errorf("amosim: parallel kernel diverged from sequential on the pdes workload:\nseq: %s\npar: %s", seqJSON, parJSON)
	}
	kernel, err := pdesKernelRun(pcfg, mech, bopts)
	if err != nil {
		return pdesDoc{}, err
	}

	// Host section: warm each kernel once, then time the op loops.
	timeKernel := func(c Config) (float64, error) {
		if _, err := RunBarrier(c, mech, bopts); err != nil {
			return 0, err
		}
		start := time.Now()
		for i := 0; i < pdesIterations; i++ {
			if _, err := RunBarrier(c, mech, bopts); err != nil {
				return 0, err
			}
		}
		return float64(time.Since(start).Nanoseconds()) / pdesIterations, nil
	}
	seqNs, err := timeKernel(cfg)
	if err != nil {
		return pdesDoc{}, err
	}
	parNs, err := timeKernel(pcfg)
	if err != nil {
		return pdesDoc{}, err
	}

	return pdesDoc{
		Generator: "amotables -bench pdes",
		Procs:     cfg.Processors,
		Mechanism: mech.String(),
		Episodes:  bopts.Episodes,
		Warmup:    bopts.Warmup,
		Shards:    pdesShards,

		SimCycles:        seqR.TotalCycles,
		CyclesPerBarrier: seqR.CyclesPerBarrier,
		pdesKernel:       kernel,

		HostCPUs:       runtime.NumCPU(),
		HostIterations: pdesIterations,
		HostSeqNsPerOp: seqNs,
		HostParNsPerOp: parNs,
		HostSpeedup:    seqNs / parNs,
	}, nil
}

// pdesKernelRun executes the workload on a parallel machine with kernel
// metrics enabled and returns the kernel's side of the document, all
// deterministic.
func pdesKernelRun(cfg Config, mech Mechanism, bopts BarrierOptions) (pdesKernel, error) {
	bopts = bopts.WithDefaults()
	m, err := machine.New(cfg)
	if err != nil {
		return pdesKernel{}, err
	}
	defer m.Shutdown()
	pe, ok := m.Eng.(*sim.Parallel)
	if !ok {
		return pdesKernel{}, fmt.Errorf("amosim: the pdes workload built a %T, not the parallel kernel", m.Eng)
	}
	m.EnableKernelMetrics()
	b := NewBarrier(m, mech, cfg.Processors, 0)
	m.OnAllCPUs(func(c *CPU) {
		for e := 0; e < bopts.Warmup+bopts.Episodes; e++ {
			c.Think(uint64((c.ID()*37 + e*13) % bopts.WorkCycles))
			b.Wait(c)
		}
	})
	before, windows, ranked := m.Metrics(), pe.Windows(), pe.RankedPushes()
	if _, err := m.Run(); err != nil {
		return pdesKernel{}, err
	}
	d := m.Metrics().Diff(before)
	k := pdesKernel{
		EventsPerRun: d.Kernel.EventsExecuted,
		WindowCycles: pe.Window(),
		ShardEvents:  d.Kernel.ShardEvents,
		Windows:      pe.Windows() - windows,
		RankedPushes: pe.RankedPushes() - ranked,
	}
	k.Ceiling = float64(k.EventsPerRun) / float64(slices.Max(k.ShardEvents))
	return k, nil
}
