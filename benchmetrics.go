package amosim

// metricsRow is one mechanism x primitive benchmark of the metrics bench
// document. Attribution is derived from the measurement-window Snapshot
// diff; its Compute+MemoryStall+SpinIdle sum exactly to TotalCPUCycles.
type metricsRow struct {
	Primitive        string // "barrier" (centralized) or "ticket"
	Mechanism        string
	Procs            int
	CyclesPerOp      float64
	NetMessagesPerOp float64
	ByteHopsPerOp    float64
	WindowCycles     uint64
	Attribution      Attribution
}

// metricsDoc is the BENCH_metrics.json document.
type metricsDoc struct {
	Generator string
	Rows      []metricsRow
}

// benchMetrics runs one barrier and one ticket-lock benchmark per
// mechanism at 32 CPUs and the default budgets — on the sweep engine, so
// the runs parallelize and memoize like any other sweep. The document is
// byte-identical at any worker count: rows are assembled in mechanism
// order (barrier before ticket within each mechanism) from the ordered
// result slice.
func benchMetrics() (metricsDoc, error) {
	cfg := DefaultConfig(32)
	var pts []SweepPoint
	for _, mech := range Mechanisms {
		pts = append(pts, BarrierPoint(cfg, mech, BarrierOptions{}), LockPoint(cfg, Ticket, mech, LockOptions{}))
	}
	vals, err := runPoints(pts)
	if err != nil {
		return metricsDoc{}, err
	}
	doc := metricsDoc{Generator: "amotables -bench metrics"}
	for i := 0; i < len(vals); i += 2 {
		b := vals[i].(BarrierResult)
		l := vals[i+1].(LockResult)
		doc.Rows = append(doc.Rows, metricsRow{
			Primitive: "barrier", Mechanism: b.Mechanism, Procs: b.Procs,
			CyclesPerOp:      b.CyclesPerBarrier,
			NetMessagesPerOp: b.NetMessagesPerBarrier,
			ByteHopsPerOp:    b.ByteHopsPerBarrier,
			WindowCycles:     b.TotalCycles,
			Attribution:      b.Metrics.Attribution(),
		})
		passes := float64(l.Procs * l.Acquires)
		doc.Rows = append(doc.Rows, metricsRow{
			Primitive: "ticket", Mechanism: l.Mechanism, Procs: l.Procs,
			CyclesPerOp:      l.CyclesPerPass,
			NetMessagesPerOp: l.MessagesPerPass,
			ByteHopsPerOp:    float64(l.ByteHops) / passes,
			WindowCycles:     l.TotalCycles,
			Attribution:      l.Metrics.Attribution(),
		})
	}
	return doc, nil
}
