package amosim

import (
	"runtime"
	"time"
)

// The crossover bench document: the crossover grid at its CI scales
// ({64, 256} CPUs, all three backends). Every simulated figure is
// deterministic, so drift in the combining primitives, the sharer-vector
// encoding, or the backends' cost models fails the gate. Host* fields
// record wall clock for context.

// crossoverBenchProcs is the processor sweep the document pins: the
// crossover experiment's CI scales. The flagship 1024/4096 points are
// excluded — they are a multi-minute manual run (see CrossoverProcs).
var crossoverBenchProcs = []int{64, 256}

// crossoverRow is one (backend, CPUs) cell set of the document.
type crossoverRow struct {
	Backend string
	Procs   int
	crossoverCells
}

// crossoverDoc is the BENCH_crossover.json document.
type crossoverDoc struct {
	Generator string

	// Workload identity: the budgets actually applied at the pinned
	// scales (crossoverBudget output for the defaults).
	Procs    []int
	Episodes int
	Warmup   int
	Acquires int

	// Deterministic outputs: the grid, backend-major, plus the per-backend
	// crossover points at these scales.
	Rows             []crossoverRow
	BarrierCrossover map[string]string
	LockCrossover    map[string]string

	// Host measurements.
	HostCPUs    int
	HostSeconds float64
}

// benchCrossover runs the crossover grid at the CI scales.
func benchCrossover() (crossoverDoc, error) {
	start := time.Now()
	keys, grid, err := crossoverGrid(crossoverBenchProcs, BarrierOptions{}, LockOptions{})
	if err != nil {
		return crossoverDoc{}, err
	}
	bo, lo := crossoverBudget(crossoverBenchProcs[0], BarrierOptions{}, LockOptions{})
	doc := crossoverDoc{
		Generator: "amotables -bench crossover",
		Procs:     crossoverBenchProcs,
		Episodes:  bo.Episodes,
		Warmup:    bo.Warmup,
		Acquires:  lo.Acquires,

		BarrierCrossover: map[string]string{},
		LockCrossover:    map[string]string{},

		HostCPUs: runtime.NumCPU(),
	}
	for _, k := range keys {
		doc.Rows = append(doc.Rows, crossoverRow{
			Backend:        k.backend.String(),
			Procs:          k.p,
			crossoverCells: grid[k],
		})
	}
	for _, b := range Backends {
		doc.BarrierCrossover[b.String()] = crossoverPoint(crossoverBenchProcs, grid, b,
			func(c crossoverCells) bool { return c.BarComb < c.BarAMO })
		doc.LockCrossover[b.String()] = crossoverPoint(crossoverBenchProcs, grid, b,
			func(c crossoverCells) bool { return c.LockComb < c.LockAMO })
	}
	doc.HostSeconds = time.Since(start).Seconds()
	return doc, nil
}
