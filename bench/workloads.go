package bench

import (
	"context"
	"crypto/sha256"
	"embed"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"strings"
	"time"

	"amosim"
	"amosim/internal/machine"
	"amosim/internal/sim"
	"amosim/internal/sweep"
)

// Workloads names the benchmark's workloads, in the order BENCHMARK.json
// lists them. Each stresses different layers (see README.md):
//
//   - paper-tables: the paper's tables and figures and the two AMU
//     ablations, simulated row by row through a fresh sweep cache and
//     rendered to text. Many small and medium machines on the sequential
//     kernel, sweep dedup and tails, GC.
//   - pdes-1024: rounds of ops that each build a 1024-CPU machine and run
//     the flat AMO barrier on the parallel kernel. Construction at scale
//     and the parallel kernel; no sweep.
//   - traffic-16: the open-loop traffic grid at 16 CPUs on all three
//     backends. The syncron and dsm backends, memsys and directory maps;
//     negligible construction. The only workload with random inputs.
var Workloads = []string{"paper-tables", "pdes-1024", "traffic-16"}

func newWorkload(name string, seed uint64, smoke bool) (workload, error) {
	switch name {
	case "paper-tables":
		return newPaperTables(smoke), nil
	case "pdes-1024":
		return newPdes(smoke), nil
	case "traffic-16":
		return newTraffic(seed, smoke), nil
	}
	return nil, fmt.Errorf("bench: unknown workload %q (have %s)", name, strings.Join(Workloads, ", "))
}

// goldens are the pinned outputs of the full-size workloads.
//
//go:embed testdata/golden
var goldens embed.FS

// goldenPath is where workload name's pin lives.
func goldenPath(name string) string {
	ext := ".json"
	if name == "paper-tables" {
		ext = ".txt"
	}
	return "testdata/golden/" + name + ext
}

func golden(name string) []byte {
	b, err := goldens.ReadFile(goldenPath(name))
	if err != nil {
		return nil
	}
	return b
}

func sameJSON(a, b any) bool {
	ja, errA := json.Marshal(a)
	jb, errB := json.Marshal(b)
	return errA == nil && errB == nil && string(ja) == string(jb)
}

func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// paperExperiments is the paper-tables pass: the paper's tables and
// figures plus the AMU-cache and update ablations, at the paper's scales.
// crossover and the rest of the registry are left out: the dsm 1024-CPU
// barrier alone takes seconds per point.
var paperExperiments = []string{
	"fig1", "table2", "fig5", "table3", "fig6", "table4", "fig7",
	"ablation-amucache", "ablation-update",
}

// paperTable2 is the paper's Table 2 (speedup over LL/SC of ActMsg,
// Atomic, MAO and AMO) at the scales EXPERIMENTS.md lists, for
// model.table2_log_err.
var paperTable2 = []struct {
	procs   int
	speedup [4]float64
}{
	{4, [4]float64{0.95, 1.15, 1.21, 2.10}},
	{16, [4]float64{2.00, 1.20, 3.61, 9.11}},
	{64, [4]float64{2.78, 1.37, 5.14, 23.78}},
	{256, [4]float64{2.82, 1.23, 14.70, 61.94}},
}

// paperTables regenerates paperExperiments through a fresh sweep cache
// each round: it simulates the experiments' barrier and lock points one
// table row at a time, each row one RunSweepPoints call on the shared
// cache, then renders every experiment through the registry from the warm
// cache and checks each section against the pinned text. Set-up runs one
// Table 2 row directly, without the sweep engine, as the reference the
// sweep's cells must equal.
type paperTables struct {
	params   amosim.ExperimentParams
	refProcs int
	golden   map[string]string

	ref     []amosim.BarrierResult
	cache   *amosim.SweepCache
	results map[string]any // by point key
	bodies  map[string]string
	errs    map[string]error
}

func newPaperTables(smoke bool) *paperTables {
	w := &paperTables{refProcs: 64}
	if smoke {
		w.params.Procs = []int{4, 8}
		w.refProcs = 8
	} else if g := golden("paper-tables"); g != nil {
		w.golden = splitSections(string(g))
	}
	return w
}

func (w *paperTables) setup() error {
	ref := make([]amosim.BarrierResult, len(amosim.Mechanisms))
	for i, mech := range amosim.Mechanisms {
		r, err := amosim.RunBarrier(amosim.DefaultConfig(w.refProcs), mech, amosim.BarrierOptions{})
		if err != nil {
			return err
		}
		ref[i] = r
	}
	if w.ref != nil && !sameJSON(w.ref, ref) {
		return errors.New("direct Table 2 reference runs differ between set-ups")
	}
	w.ref = ref
	return nil
}

// startRound gives one unit per table row that has points no earlier row
// simulated, then one unit rendering every experiment.
func (w *paperTables) startRound() []unit {
	w.cache = amosim.NewSweepCache()
	runner := amosim.Runner{Workers: hostWorkers, Cache: w.cache}
	amosim.SetDefaultRunner(runner)
	w.results, w.bodies, w.errs = map[string]any{}, map[string]string{}, map[string]error{}
	var units []unit
	seen := map[string]bool{}
	for _, name := range paperExperiments {
		info, _ := amosim.ExperimentByName(name)
		procs := w.params.Procs
		if procs == nil {
			procs = info.DefaultProcs
		}
		for _, p := range procs {
			pts := rowPoints(name, p)
			fresh := false
			for _, pt := range pts {
				fresh = fresh || !seen[pt.Key]
				seen[pt.Key] = true
			}
			if !fresh {
				continue
			}
			units = append(units, unit{fmt.Sprintf("%s p=%d", name, p), func(*spans, int) {
				vals, err := runner.RunSweepPoints(context.Background(), pts)
				if err != nil {
					w.errs[name] = err
					return
				}
				for i, pt := range pts {
					w.results[pt.Key] = vals[i]
				}
			}})
		}
	}
	return append(units, unit{"render", func(sp *spans, parent int) {
		for _, name := range paperExperiments {
			id := sp.begin(parent, name)
			e, _ := amosim.ExperimentByName(name)
			t, err := e.Run(w.params)
			sp.end(id)
			if err != nil {
				w.errs[name] = err
				continue
			}
			w.bodies[name] = t.Render() + "\n"
		}
	}})
}

// rowPoints lists the barrier and lock sweep points of experiment name's
// row at p CPUs, expanded the way the experiment expands its grid.
func rowPoints(name string, p int) []amosim.SweepPoint {
	cfg := amosim.DefaultConfig(p)
	var none amosim.BarrierOptions
	var pts []amosim.SweepPoint
	switch name {
	case "table2", "fig5":
		pts = amosim.BarrierExperiment{Procs: []int{p}}.Points()
	case "table3", "fig6":
		for _, mech := range amosim.Mechanisms {
			for _, b := range amosim.TreeBranchings(p) {
				pts = append(pts, amosim.BarrierPoint(cfg, mech, amosim.BarrierOptions{Branching: b}))
			}
		}
		pts = append(pts, amosim.BarrierPoint(cfg, amosim.LLSC, none), amosim.BarrierPoint(cfg, amosim.AMO, none))
	case "table4":
		pts = amosim.LockExperiment{Procs: []int{p}}.Points()
	case "fig7":
		pts = amosim.LockExperiment{Procs: []int{p}, Kinds: []amosim.LockKind{amosim.Ticket}}.Points()
	case "ablation-amucache":
		for _, words := range []int{0, 1, 8} {
			c := cfg
			c.AMUCacheWords = words
			pts = append(pts, amosim.BarrierPoint(c, amosim.AMO, none))
		}
	case "ablation-update":
		pts = append(pts, amosim.BarrierPoint(cfg, amosim.AMO, none),
			amosim.BarrierPoint(cfg, amosim.AMO, amosim.BarrierOptions{AMOUpdateAlways: true}))
	}
	return pts
}

func (w *paperTables) check() round {
	r := round{counts: map[string]Metric{}, host: map[string]Metric{}}
	for _, name := range paperExperiments {
		r.ops++
		switch {
		case w.errs[name] != nil:
			r.fail(fmt.Errorf("%s: %w", name, w.errs[name]))
		case w.golden != nil && w.bodies[name] != w.golden[name]:
			r.fail(fmt.Errorf("%s: rendered table differs from testdata/golden", name))
		}
	}
	addSweep(r.counts, w.cache.Stats())
	// Counts are integers below 2^53, so summing them in map order is exact.
	for _, v := range w.results {
		switch v := v.(type) {
		case amosim.BarrierResult:
			addSnapshot(r.counts, v.Metrics)
		case amosim.LockResult:
			addSnapshot(r.counts, v.Metrics)
		}
	}
	finishCounts(r.counts)

	barrier := func(p int, mech amosim.Mechanism) (amosim.BarrierResult, bool) {
		v, ok := w.results[amosim.BarrierPoint(amosim.DefaultConfig(p), mech, amosim.BarrierOptions{}).Key].(amosim.BarrierResult)
		return v, ok
	}
	for i, mech := range amosim.Mechanisms {
		if got, ok := barrier(w.refProcs, mech); !ok || !sameJSON(got, w.ref[i]) {
			r.fail(fmt.Errorf("table2 %v at %d CPUs: sweep cell differs from the direct run", mech, w.refProcs))
		}
	}
	var logErr float64
	var cells int
	for _, row := range paperTable2 {
		base, ok := barrier(row.procs, amosim.LLSC)
		if !ok {
			continue
		}
		for i, mech := range []amosim.Mechanism{amosim.ActMsg, amosim.Atomic, amosim.MAO, amosim.AMO} {
			v, _ := barrier(row.procs, mech)
			logErr += math.Abs(math.Log(amosim.Speedup(base.CyclesPerBarrier, v.CyclesPerBarrier) / row.speedup[i]))
			cells++
		}
	}
	if cells > 0 {
		r.counts["model.table2_log_err"] = Metric{logErr / float64(cells), "ratio"}
	}
	return r
}

// splitSections splits a pass text into its "== name ==" sections.
func splitSections(text string) map[string]string {
	out := map[string]string{}
	name := ""
	for _, line := range strings.SplitAfter(text, "\n") {
		if strings.HasPrefix(line, "== ") && strings.HasSuffix(line, " ==\n") {
			name = strings.TrimSuffix(strings.TrimPrefix(line, "== "), " ==\n")
			continue
		}
		out[name] += line
	}
	return out
}

// The pdes-1024 op: the flat AMO barrier with one warm-up and four
// measured episodes, staggered exactly as amosim.RunBarrier staggers them.
const (
	pdesWarmup   = 1
	pdesEpisodes = 4
	pdesWork     = 96
)

// pdes runs rounds of ops, each building a fresh machine with machine.New
// and running the barrier on the parallel kernel as a warm-up and a
// measured phase. Set-up runs the same barrier on the sequential kernel
// through amosim.RunBarrier; every op's measured-window snapshot must equal
// that reference, whose digest is pinned.
type pdes struct {
	procs, opsPerRound int
	golden             []byte

	ref   []byte // the reference's measured-window snapshot JSON
	pin   []byte
	seqMS []float64
	ops   []pdesOp
}

// pdesOp is one op's timings and outputs.
type pdesOp struct {
	newD, warmD, snapD, measD time.Duration
	total                     time.Duration
	events                    uint64 // both phases
	window                    amosim.Snapshot
	windowCycles              uint64
	err                       error
}

func newPdes(smoke bool) *pdes {
	if smoke {
		return &pdes{procs: 64, opsPerRound: 2}
	}
	return &pdes{procs: 1024, opsPerRound: 24, golden: golden("pdes-1024")}
}

// pdesPin is the pinned form of the sequential reference: its headline
// figures and the digest of its full measured-window snapshot.
type pdesPin struct {
	Procs                 int
	TotalCycles           uint64
	CyclesPerBarrier      float64
	NetMessagesPerBarrier float64
	ByteHopsPerBarrier    float64
	MetricsSHA256         string
}

func (w *pdes) setup() error {
	start := time.Now()
	r, err := amosim.RunBarrier(amosim.DefaultConfig(w.procs), amosim.AMO,
		amosim.BarrierOptions{Episodes: pdesEpisodes, Warmup: pdesWarmup, WorkCycles: pdesWork})
	if err != nil {
		return err
	}
	w.seqMS = append(w.seqMS, ms(time.Since(start)))
	ref, err := json.Marshal(r.Metrics)
	if err != nil {
		return err
	}
	pin, err := json.MarshalIndent(pdesPin{
		Procs: r.Procs, TotalCycles: r.TotalCycles, CyclesPerBarrier: r.CyclesPerBarrier,
		NetMessagesPerBarrier: r.NetMessagesPerBarrier, ByteHopsPerBarrier: r.ByteHopsPerBarrier,
		MetricsSHA256: digest(ref),
	}, "", "  ")
	if err != nil {
		return err
	}
	pin = append(pin, '\n')
	switch {
	case w.ref != nil && string(ref) != string(w.ref):
		return errors.New("sequential reference differs between set-ups")
	case w.golden != nil && string(pin) != string(w.golden):
		return fmt.Errorf("sequential reference differs from testdata/golden:\n%s", pin)
	}
	w.ref, w.pin = ref, pin
	return nil
}

// startRound gives one unit per op.
func (w *pdes) startRound() []unit {
	w.ops = w.ops[:0]
	units := make([]unit, w.opsPerRound)
	for i := range units {
		units[i] = unit{"op", func(sp *spans, parent int) { w.ops = append(w.ops, w.op(sp, parent)) }}
	}
	return units
}

// op builds one machine and runs the barrier's two phases, timing each
// public call.
func (w *pdes) op(sp *spans, parent int) (o pdesOp) {
	cfg := amosim.DefaultConfig(w.procs)
	cfg.Engine, cfg.Shards = "parallel", hostWorkers
	t0 := time.Now()
	m, err := machine.New(cfg)
	t1 := time.Now()
	o.newD = t1.Sub(t0)
	if err != nil {
		o.err = err
		return o
	}
	defer m.Shutdown()
	m.EnableKernelMetrics()
	if pe, ok := m.Eng.(*sim.Parallel); ok {
		o.windowCycles = pe.Window()
	}
	b := amosim.NewBarrier(m, amosim.AMO, w.procs, 0)
	phase := func(from, to int) error {
		m.OnAllCPUs(func(c *amosim.CPU) {
			for e := from; e < to; e++ {
				c.Think(uint64((c.ID()*37 + e*13) % pdesWork))
				b.Wait(c)
			}
		})
		_, err := m.Run()
		return err
	}
	if o.err = phase(0, pdesWarmup); o.err != nil {
		return o
	}
	t2 := time.Now()
	before := m.Metrics()
	t3 := time.Now()
	if o.err = phase(pdesWarmup, pdesWarmup+pdesEpisodes); o.err != nil {
		return o
	}
	t4 := time.Now()
	after := m.Metrics()
	t5 := time.Now()
	o.warmD, o.snapD, o.measD, o.total = t2.Sub(t1), t3.Sub(t2)+t5.Sub(t4), t4.Sub(t3), t5.Sub(t0)
	o.window = after.Diff(before)
	o.events = after.Kernel.EventsExecuted

	sp.add(parent, "new", t0, t1)
	sp.add(parent, "run.warmup", t1, t2)
	sp.add(parent, "snapshot", t2, t3)
	sp.add(parent, "run.measured", t3, t4)
	sp.add(parent, "snapshot", t4, t5)
	return o
}

func (w *pdes) check() round {
	r := round{counts: map[string]Metric{}, host: map[string]Metric{}, samples: map[string][]float64{}}
	var events, shardMax, windowEvents float64
	var busy time.Duration
	for i, o := range w.ops {
		r.ops++
		if o.err != nil {
			r.fail(fmt.Errorf("op %d: %w", i, o.err))
			continue
		}
		k := o.window.Kernel
		o.window.Kernel = nil
		if err := o.window.CheckConservation(); err != nil {
			r.fail(fmt.Errorf("op %d: %w", i, err))
		} else if got, err := json.Marshal(o.window); err != nil || string(got) != string(w.ref) {
			r.fail(fmt.Errorf("op %d: measured window differs from the sequential reference", i))
		}
		addSnapshot(r.counts, o.window)
		events += float64(o.events)
		windowEvents += float64(k.EventsExecuted)
		var most uint64
		for _, e := range k.ShardEvents {
			most = max(most, e)
		}
		shardMax += float64(most)
		r.counts["sim.window_cycles"] = Metric{float64(o.windowCycles), "count"}
		busy += o.total
		r.samples["op_ms"] = append(r.samples["op_ms"], ms(o.total))
		r.samples["machine.new_ms"] = append(r.samples["machine.new_ms"], ms(o.newD))
		r.samples["sim.run_ms"] = append(r.samples["sim.run_ms"], ms(o.warmD+o.measD))
		r.samples["snapshot_ms"] = append(r.samples["snapshot_ms"], ms(o.snapD))
	}
	finishCounts(r.counts)
	addSweep(r.counts, sweep.CacheStats{}) // the op uses no sweep
	r.counts["sim.events"] = Metric{events, "count"}
	r.counts["sim.window_events"] = Metric{windowEvents, "count"}
	r.counts["sim.shard_events_max"] = Metric{shardMax, "count"}
	if shardMax > 0 {
		r.counts["sim.pdes_ceiling"] = Metric{windowEvents / shardMax, "ratio"}
	}
	if busy > 0 {
		r.host["events_per_s"] = Metric{events / busy.Seconds(), "1/s"}
		r.host["sim.pdes_speedup"] = Metric{median(w.seqMS) / median(r.samples["op_ms"]), "ratio"}
	}
	r.host["sim.seq_op_ms"] = Metric{median(w.seqMS), "ms"}
	return r
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// Traffic-16's grid and its reference cell.
const (
	trafficProcs    = 16
	trafficRequests = 4000
	trafficRefApp   = "mpmc"
	trafficRefRate  = 8
)

// traffic runs the open-loop traffic grid with TrafficSweep through a
// fresh sweep cache each round. Set-up runs one cell (mpmc, amo backend,
// AMO, rate 8) directly as the reference its grid cell must equal. Every
// round must repeat the first round's rows, and for seed 1 their digest is
// pinned.
type traffic struct {
	exp    amosim.TrafficExperiment
	cells  int
	golden []byte

	ref   []byte
	first []string
	pin   []byte
	out   []amosim.TrafficCell
	wall  time.Duration
	cache *amosim.SweepCache
	err   error
}

func newTraffic(seed uint64, smoke bool) *traffic {
	opts := amosim.TrafficOptions{Process: "poisson", Requests: trafficRequests, Seed: seed}
	w := &traffic{exp: amosim.TrafficExperiment{Procs: []int{trafficProcs}, Options: opts}}
	if smoke {
		w.exp.Options.Requests = 200
		w.exp.Rates = []int{trafficRefRate}
	} else if opts.WithDefaults().Seed == 1 {
		w.golden = golden("traffic-16")
	}
	w.cells = len(w.exp.Points())
	return w
}

// refPoint is the reference cell's sweep point, built the way the grid
// builds it.
func (w *traffic) refPoint() amosim.SweepPoint {
	o := w.exp.Options
	o.Rate = trafficRefRate
	s, _ := amosim.TrafficWorkloadSpec(trafficRefApp, o)
	return s.Point(amosim.DefaultConfig(trafficProcs), amosim.AMO, amosim.WorkloadRunConfig{})
}

func (w *traffic) setup() error {
	v, err := w.refPoint().Run()
	if err != nil {
		return err
	}
	ref, err := json.Marshal(v)
	if err != nil {
		return err
	}
	if w.ref != nil && string(ref) != string(w.ref) {
		return errors.New("reference cell differs between set-ups")
	}
	w.ref = ref
	return nil
}

// startRound gives one unit per (app, backend): TrafficSweep over that
// part of the grid, all sharing a fresh cache. The grid expands app-major,
// then backend, so the units' cells in order are the whole grid's.
func (w *traffic) startRound() []unit {
	w.cache = amosim.NewSweepCache()
	amosim.SetDefaultRunner(amosim.Runner{Workers: hostWorkers, Cache: w.cache})
	w.out, w.err, w.wall = nil, nil, 0
	var units []unit
	for _, app := range amosim.TrafficApps {
		for _, b := range amosim.Backends {
			units = append(units, unit{app + "/" + b.String(), func(*spans, int) {
				e := w.exp
				e.Apps, e.Backends = []string{app}, []amosim.Backend{b}
				start := time.Now()
				cells, err := amosim.TrafficSweep(e)
				w.wall += time.Since(start)
				w.out = append(w.out, cells...)
				if w.err == nil {
					w.err = err
				}
			}})
		}
	}
	return units
}

// trafficRow is a cell's deterministic outputs.
type trafficRow struct {
	App, Backend, Mechanism string
	Rate                    int
	Injected, Completed     uint64
	Cycles                  uint64
	Achieved                float64
	Saturated               bool
	P50, P99, P999, Max     uint64
}

// trafficPin is the pinned digest of a grid's rows.
type trafficPin struct {
	Seed       uint64
	Cells      int
	RowsSHA256 string
}

func (w *traffic) check() round {
	r := round{ops: w.cells, counts: map[string]Metric{}, host: map[string]Metric{}}
	addSweep(r.counts, w.cache.Stats())
	if w.err != nil || len(w.out) != w.cells {
		r.failed = w.cells
		r.errs = []error{fmt.Errorf("grid: %d of %d cells, %v", len(w.out), w.cells, w.err)}
		finishCounts(r.counts)
		return r
	}
	rows := make([]string, len(w.out))
	var requests, achieved, saturated float64
	for i, c := range w.out {
		res := c.Result
		row, err := json.Marshal(trafficRow{
			App: c.App, Backend: c.Backend.String(), Mechanism: c.Mechanism.String(), Rate: c.Rate,
			Injected: res.Injected, Completed: res.Completed, Cycles: res.Cycles,
			Achieved: res.Achieved, Saturated: res.Saturated,
			P50: res.Latency.P50, P99: res.Latency.P99, P999: res.Latency.P999, Max: res.Latency.Max,
		})
		rows[i] = string(row)
		isRef := c.App == trafficRefApp && c.Backend == amosim.BackendAMO && c.Mechanism == amosim.AMO && c.Rate == trafficRefRate
		switch {
		case err != nil:
			r.fail(err)
		case res.Completed != res.Injected:
			r.fail(fmt.Errorf("%s: %d of %d requests completed", rows[i], res.Completed, res.Injected))
		case res.Metrics.CheckConservation() != nil:
			r.fail(fmt.Errorf("%s: %w", rows[i], res.Metrics.CheckConservation()))
		case w.first != nil && rows[i] != w.first[i]:
			r.fail(fmt.Errorf("cell %d differs from the first round: %s", i, rows[i]))
		case isRef && !sameJSON(res, json.RawMessage(w.ref)):
			r.fail(fmt.Errorf("%s: differs from the set-up reference run", rows[i]))
		}
		if isRef {
			r.counts["traffic.sojourn_p99_cycles"] = Metric{float64(res.Latency.P99), "count"}
		}
		addSnapshot(r.counts, res.Metrics)
		requests += float64(res.Completed)
		achieved += res.Achieved / res.Offered
		if res.Saturated {
			saturated++
		}
	}
	if w.first == nil {
		w.first = rows
	}
	all, _ := json.Marshal(rows)
	pin, _ := json.MarshalIndent(trafficPin{Seed: w.exp.Options.WithDefaults().Seed, Cells: w.cells, RowsSHA256: digest(all)}, "", "  ")
	w.pin = append(pin, '\n')
	if w.golden != nil && string(w.pin) != string(w.golden) {
		r.failed = r.ops
		r.errs = append(r.errs, errors.New("grid rows differ from testdata/golden"))
	}
	finishCounts(r.counts)
	r.counts["traffic.requests"] = Metric{requests, "count"}
	r.counts["traffic.saturated_cells"] = Metric{saturated, "count"}
	r.counts["traffic.achieved_ratio"] = Metric{achieved / float64(len(w.out)), "ratio"}
	r.host["requests_per_s"] = Metric{requests / w.wall.Seconds(), "1/s"}
	return r
}
