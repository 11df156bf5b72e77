package amosim

import (
	"runtime"
	"time"

	"amosim/internal/workload"
)

// The traffic bench document: a compact open-loop grid — every traffic
// app on every backend under the default mechanism pair at two offered
// rates. Every simulated figure is deterministic, so drift in the arrival
// process, the latency histogram, a queue workload, or a backend cost
// model fails the gate. Host* fields record wall clock for context.

// trafficBenchProcs is the machine scale the document pins.
const trafficBenchProcs = 8

// trafficBenchRates is the offered-rate ladder the document pins: one
// rate every mechanism absorbs and one past saturation.
var trafficBenchRates = []int{1, 16}

// trafficBenchOptions is the pinned driver configuration.
var trafficBenchOptions = workload.TrafficOptions{
	Process: "poisson", Requests: 240, Warmup: 24, Seed: 1,
}

// trafficRow is one (app, backend, rate, mechanism) cell.
type trafficRow struct {
	App       string
	Backend   string
	Rate      int
	Mechanism string

	Cycles    uint64
	Achieved  float64
	Saturated bool
	P50       uint64
	P99       uint64
	P999      uint64
	Max       uint64
}

// trafficDoc is the BENCH_traffic.json document.
type trafficDoc struct {
	Generator string

	// Workload identity: the pinned grid.
	Procs    int
	Process  string
	Requests int
	Warmup   int
	Rates    []int

	// Deterministic outputs, expansion order (app, backend, rate, mech).
	Rows []trafficRow

	// Host measurements.
	HostCPUs    int
	HostSeconds float64
}

// benchTraffic runs the pinned open-loop grid.
func benchTraffic() (trafficDoc, error) {
	start := time.Now()
	cells, err := TrafficSweep(TrafficExperiment{
		Procs:   []int{trafficBenchProcs},
		Rates:   trafficBenchRates,
		Options: trafficBenchOptions,
	})
	if err != nil {
		return trafficDoc{}, err
	}
	doc := trafficDoc{
		Generator: "amotables -bench traffic",
		Procs:     trafficBenchProcs,
		Process:   trafficBenchOptions.Process,
		Requests:  trafficBenchOptions.Requests,
		Warmup:    trafficBenchOptions.Warmup,
		Rates:     trafficBenchRates,
		HostCPUs:  runtime.NumCPU(),
	}
	for _, c := range cells {
		doc.Rows = append(doc.Rows, trafficRow{
			App: c.App, Backend: c.Backend.String(), Rate: c.Rate,
			Mechanism: c.Mechanism.String(),
			Cycles:    c.Result.Cycles,
			Achieved:  c.Result.Achieved,
			Saturated: c.Result.Saturated,
			P50:       c.Result.Latency.P50,
			P99:       c.Result.Latency.P99,
			P999:      c.Result.Latency.P999,
			Max:       c.Result.Latency.Max,
		})
	}
	doc.HostSeconds = time.Since(start).Seconds()
	return doc, nil
}
