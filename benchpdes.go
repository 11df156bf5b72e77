package amosim

import (
	"encoding/json"
	"fmt"
	"runtime"
	"time"

	"amosim/internal/machine"
	"amosim/internal/sim"
)

// The parallel-kernel bench document: one "op" runs the flat AMO barrier
// on a 1024-processor machine — the scale the crossover sweeps need and
// the sequential kernel makes painful — once on each kernel. Its
// deterministic fields (simulated cycles, per-barrier cost, dispatched
// events, lookahead window, per-shard event counts) are identical between
// kernels and across hosts: cross-kernel equivalence evidence. Host*
// fields record the wall-clock ratio on the generating host, ungated.

// pdesDoc is the BENCH_pdes.json document.
type pdesDoc struct {
	Generator string

	// Workload identity.
	Procs     int
	Mechanism string
	Episodes  int
	Warmup    int
	Shards    int

	// Deterministic outputs, identical on both kernels and every host.
	SimCycles        uint64  // measurement-window simulated cycles
	CyclesPerBarrier float64 // simulated cost per barrier episode
	EventsPerRun     uint64  // kernel events dispatched by the simulation phase
	WindowCycles     uint64  // conservative lookahead width (min cross-shard latency)
	ShardEvents      []uint64

	// Host measurements.
	HostCPUs       int // runtime.NumCPU() on the generating host
	HostIterations int // timed ops per kernel behind the averages below
	HostSeqNsPerOp float64
	HostParNsPerOp float64
	HostSpeedup    float64 // seq/par wall-clock ratio
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
	events, window, shardEvents, err := pdesKernelRun(pcfg, mech, bopts)
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
		EventsPerRun:     events,
		WindowCycles:     window,
		ShardEvents:      shardEvents,

		HostCPUs:       runtime.NumCPU(),
		HostIterations: pdesIterations,
		HostSeqNsPerOp: seqNs,
		HostParNsPerOp: parNs,
		HostSpeedup:    seqNs / parNs,
	}, nil
}

// pdesKernelRun executes the workload on a parallel machine with kernel
// metrics enabled and returns the simulation phase's dispatched event
// count, the engine's lookahead window, and the per-shard dispatch counts
// — all deterministic.
func pdesKernelRun(cfg Config, mech Mechanism, bopts BarrierOptions) (events, window uint64, shardEvents []uint64, err error) {
	bopts = bopts.WithDefaults()
	m, err := machine.New(cfg)
	if err != nil {
		return 0, 0, nil, err
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
		return 0, 0, nil, err
	}
	d := m.Metrics().Diff(before)
	if pe, ok := m.Eng.(*sim.Parallel); ok {
		window = uint64(pe.Window())
	}
	return d.Kernel.EventsExecuted, window, d.Kernel.ShardEvents, nil
}
