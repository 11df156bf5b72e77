package amosim

import (
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"amosim/internal/stats"
)

// The reproduction's results are trusted because they are exact: every
// result document, rendered table and chaos trace digest is byte-identical
// across sweep worker counts, across the sequential and parallel event
// kernels at every shard count, and on all three memory-system backends.
// matrixRow.check is the one check behind that promise.
//
// It renders one experiment for one backend on the sequential kernel with
// a cold sweep cache: the reference, at Workers 1 when the row has a
// Workers axis. Every variant must reproduce it byte for byte: Workers 4,
// and the parallel kernel at each of the row's shard counts, also at
// Workers 4, so in a row with a Workers axis a parallel variant crosses
// both axes at once. A parallel variant must also prove it ran in
// parallel: a machine built from its config reports that shard count at
// every scale of the row, and every point label the sweep Runner reported
// carries its [pdes:N] tag.
//
// TestDifferentialMatrix runs the rows of matrixRows. The barrier, lock,
// per-backend Table 2 and traffic-grid comparisons run the same check from
// their own tests below, and the chaos trials' kernel comparisons live in
// internal/chaos.

// matrixRow is one experiment of the differential matrix.
type matrixRow struct {
	name     string
	backends []Backend // nil: the default amo machine only
	scales   []int     // the CPU counts the render covers
	shards   []int     // parallel-kernel shard counts, each >= 2
	workers  bool      // the row has a Workers 1 vs 4 axis
	long     bool      // skipped under -short
	// render runs the experiment at scales under rc through the default
	// Runner and returns its output.
	render func(scales []int, rc RunConfig) (string, error)
}

// cell names the row's subtest for one backend.
func (r matrixRow) cell(b Backend) string {
	ints := func(xs []int) string { return strings.Trim(strings.ReplaceAll(fmt.Sprint(xs), " ", ","), "[]") }
	name := r.name + "/" + b.String()
	if len(r.scales) > 0 {
		name += "/p" + ints(r.scales)
	}
	if len(r.shards) > 0 {
		name += "/pdes" + ints(r.shards)
	}
	return name
}

var matrixRows = []matrixRow{
	{name: "table2", scales: []int{4, 8, 16}, workers: true, render: renderTable2},
	{name: "table2", scales: []int{8, 16}, shards: []int{4}, render: renderTable2},
	{name: "table4", scales: []int{4, 8}, workers: true, render: renderTable4},
	{name: "table4", scales: []int{8, 16}, shards: []int{4}, render: renderTable4},
	{name: "metrics", workers: true,
		render: func([]int, RunConfig) (string, error) {
			doc, err := Bench("metrics")
			return string(doc), err
		}},
	{name: "best-tree", scales: []int{16}, workers: true,
		render: func(ps []int, rc RunConfig) (string, error) {
			return jsonText(BestTreeBarrier(DefaultConfig(ps[0]), AMO, BarrierOptions{Episodes: 2, Warmup: 1, RunConfig: rc}))
		}},
	{name: "backends", scales: []int{4}, workers: true,
		render: func(ps []int, rc RunConfig) (string, error) {
			return text(BackendTable(ps, BarrierOptions{Episodes: 1, Warmup: 1, RunConfig: rc}, LockOptions{Acquires: 1, RunConfig: rc}))
		}},
	{name: "scale", scales: []int{64, 256, 1024, 4096}, shards: []int{8}, workers: true, long: true, render: renderScale},
	{name: "crossover", scales: []int{64, 256}, shards: []int{4}, long: true, render: renderExperiment("crossover", TrafficOptions{})},
	{name: "traffic", scales: []int{8}, shards: []int{4}, long: true, render: renderExperiment("traffic", TrafficOptions{Requests: 120})},
	{name: "apps", backends: Backends, scales: []int{16}, shards: []int{4},
		render: func(ps []int, rc RunConfig) (string, error) {
			return sweepJSON(WorkloadExperiment{Procs: ps, RunConfig: rc}.Points()...)
		}},
}

func TestDifferentialMatrix(t *testing.T) {
	for _, row := range matrixRows {
		backends := row.backends
		if backends == nil {
			backends = []Backend{BackendAMO}
		}
		for _, b := range backends {
			t.Run(row.cell(b), func(t *testing.T) {
				if row.long && testing.Short() {
					t.Skip("skipped under -short")
				}
				row.check(t, b)
			})
		}
	}
}

// check renders the row on backend b and demands that every variant
// reproduce the reference, and that every parallel variant really ran on
// the parallel kernel.
func (r matrixRow) check(t *testing.T, b Backend) {
	t.Helper()
	run := func(workers int, rc RunConfig) (out string, labels []string) {
		progress := func(e SweepEvent) { labels = append(labels, e.Label) }
		var err error
		withRunner(Runner{Workers: workers, Progress: progress}, func() {
			out, err = r.render(r.scales, rc)
		})
		if err != nil {
			t.Fatal(err)
		}
		return out, labels
	}
	base := RunConfig{Backend: b}
	refWorkers := 4
	if r.workers {
		refWorkers = 1
	}
	ref, _ := run(refWorkers, base)
	same := func(variant, got string) {
		t.Helper()
		if got != ref {
			t.Errorf("%s diverges from the reference:\n--- reference ---\n%s\n--- %s ---\n%s", variant, ref, variant, got)
		}
	}
	if r.workers {
		got, _ := run(4, base)
		same("workers=4", got)
	}
	for _, n := range r.shards {
		if n < 2 {
			t.Fatalf("shards=%d: one shard runs the sequential kernel", n)
		}
		rc := base
		rc.Engine, rc.Shards = "parallel", n
		for _, p := range r.scales {
			m, err := NewMachine(rc.apply(DefaultConfig(p)))
			if err != nil {
				t.Fatal(err)
			}
			if got := m.Eng.NumShards(); got != n {
				t.Errorf("p=%d shards=%d: the machine runs %d shard(s)", p, n, got)
			}
			m.Shutdown()
		}
		got, labels := run(4, rc)
		same(fmt.Sprintf("shards=%d", n), got)
		if len(labels) == 0 {
			t.Errorf("shards=%d: the Runner reported no points", n)
		}
		tag := fmt.Sprintf("[pdes:%d]", n)
		for _, l := range labels {
			if !strings.Contains(l, tag) {
				t.Errorf("shards=%d: point %q is not tagged %s", n, l, tag)
				break
			}
		}
	}
}

// engineShardCounts is the shard axis of the single-run comparisons. 16
// processors give 8 nodes, so 8 shards is the maximum partition (one node
// per shard).
var engineShardCounts = []int{2, 8}

// TestEngineBarrierResultByteIdentical runs the barrier experiment on the
// parallel kernel for every backend, shard count and mechanism: the full
// result document, figures plus the window metrics Snapshot, must match
// the sequential kernel's byte for byte.
func TestEngineBarrierResultByteIdentical(t *testing.T) {
	for _, b := range Backends {
		for _, n := range engineShardCounts {
			for _, mech := range []Mechanism{LLSC, AMO} {
				t.Run(fmt.Sprintf("%s/shards=%d/%s", b, n, mech), func(t *testing.T) {
					matrixRow{scales: []int{16}, shards: []int{n}, render: func(ps []int, rc RunConfig) (string, error) {
						return sweepJSON(BarrierPoint(DefaultConfig(ps[0]), mech, BarrierOptions{Episodes: 2, Warmup: 1, RunConfig: rc}))
					}}.check(t, b)
				})
			}
		}
	}
}

// TestEngineLockResultByteIdentical is the lock half: a ticket lock on AMOs.
func TestEngineLockResultByteIdentical(t *testing.T) {
	for _, b := range Backends {
		for _, n := range engineShardCounts {
			t.Run(fmt.Sprintf("%s/shards=%d", b, n), func(t *testing.T) {
				matrixRow{scales: []int{16}, shards: []int{n}, render: func(ps []int, rc RunConfig) (string, error) {
					return sweepJSON(LockPoint(DefaultConfig(ps[0]), Ticket, AMO, LockOptions{Acquires: 2, RunConfig: rc}))
				}}.check(t, b)
			})
		}
	}
}

// TestTableByteIdenticalAcrossWorkersPerBackend renders Table 2 at Workers
// 1 and 4 on the syncron and dsm backends; the matrix's table2 row covers
// the default machine.
func TestTableByteIdenticalAcrossWorkersPerBackend(t *testing.T) {
	for _, b := range []Backend{BackendSynCron, BackendDSM} {
		t.Run(b.String(), func(t *testing.T) {
			matrixRow{scales: []int{4, 8, 16}, workers: true, render: renderTable2}.check(t, b)
		})
	}
}

// trafficGridScales are the CPU counts of the mpmc traffic grid; -short
// skips the 256-CPU grid.
func trafficGridScales() []int {
	if testing.Short() {
		return []int{64}
	}
	return []int{64, 256}
}

// TestTrafficTableByteIdenticalAcrossWorkers renders the traffic grid at
// Workers 1 and 4.
func TestTrafficTableByteIdenticalAcrossWorkers(t *testing.T) {
	for _, p := range trafficGridScales() {
		matrixRow{scales: []int{p}, workers: true, render: renderTrafficGrid}.check(t, BackendAMO)
	}
}

// TestTrafficTableByteIdenticalAcrossKernels renders the traffic grid on
// the parallel kernel: arrivals are scheduled sim events, so the schedule
// replays exactly under sharded execution.
func TestTrafficTableByteIdenticalAcrossKernels(t *testing.T) {
	for _, p := range trafficGridScales() {
		matrixRow{scales: []int{p}, shards: []int{4}, render: renderTrafficGrid}.check(t, BackendAMO)
	}
}

// withRunner installs r as the default Runner over a cold sweep cache for
// the duration of f, so every point f sweeps is simulated, not replayed.
func withRunner(r Runner, f func()) {
	prev := SetDefaultRunner(r)
	defer SetDefaultRunner(prev)
	ResetSweepCache()
	defer ResetSweepCache()
	f()
}

// jsonText marshals a result document the way cmd/amosim -metrics does.
func jsonText(v any, err error) (string, error) {
	if err != nil {
		return "", err
	}
	out, err := json.MarshalIndent(v, "", "  ")
	return string(out), err
}

// text renders a generated table.
func text(tb *stats.Table, err error) (string, error) {
	if err != nil {
		return "", err
	}
	return tb.Render(), nil
}

// sweepJSON runs points on the default Runner and marshals their results.
func sweepJSON(points ...SweepPoint) (string, error) {
	return jsonText(runPoints(points))
}

func renderTable2(ps []int, rc RunConfig) (string, error) {
	return text(Table2(ps, BarrierOptions{Episodes: 2, Warmup: 1, RunConfig: rc}))
}

func renderTable4(ps []int, rc RunConfig) (string, error) {
	return text(Table4(ps, LockOptions{Acquires: 2, RunConfig: rc}))
}

// renderScale sweeps the Combining cluster barrier and the flat AMO barrier
// at every scale; the latter covers the directory's coarse-bitmap sharer
// path far past the exact-list threshold.
func renderScale(ps []int, rc RunConfig) (string, error) {
	opts := BarrierOptions{Episodes: 2, Warmup: 1, RunConfig: rc}
	var pts []SweepPoint
	for _, p := range ps {
		cfg := DefaultConfig(p)
		pts = append(pts, BarrierPoint(cfg, Combining, opts), BarrierPoint(cfg, AMO, opts))
	}
	return sweepJSON(pts...)
}

func renderTrafficGrid(ps []int, rc RunConfig) (string, error) {
	e := testTrafficExperiment(ps...)
	e.RunConfig = rc
	return text(TrafficTable(e))
}

// renderExperiment renders a registry experiment at amotables's flag
// defaults, as `amotables -only name -procs ...` prints it.
func renderExperiment(name string, traffic TrafficOptions) func([]int, RunConfig) (string, error) {
	return func(ps []int, rc RunConfig) (string, error) {
		e, ok := ExperimentByName(name)
		if !ok {
			return "", fmt.Errorf("experiment %q is not registered", name)
		}
		return text(e.Run(ExperimentParams{
			Procs:    ps,
			Barrier:  BarrierOptions{Episodes: 8, Warmup: 2, RunConfig: rc},
			Lock:     LockOptions{Acquires: 4, RunConfig: rc},
			TreeMech: LLSC,
			Traffic:  traffic,
		}))
	}
}
