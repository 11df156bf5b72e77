package amosim

import (
	"fmt"

	"amosim/internal/stats"
	"amosim/internal/sweep"
	"amosim/internal/workload"
)

// Every table and figure in this file expands its experiment grid into
// sweep points (see sweep.go) and executes them on the parallel sweep
// engine: cells simulate concurrently across SweepWorkers workers, shared
// cells (Table 2 and Figure 5 cover the same grid; tree sweeps share their
// flat references) are simulated once via the result cache, and rows are
// assembled from the ordered result slice, so output is byte-identical at
// any worker count.

// Paper-standard processor-count sweeps.
var (
	// Table2Procs are the scales of Table 2 / Figure 5.
	Table2Procs = []int{4, 8, 16, 32, 64, 128, 256}
	// Table3Procs are the scales of Table 3 / Figure 6.
	Table3Procs = []int{16, 32, 64, 128, 256}
	// Figure7Procs are the scales of Figure 7.
	Figure7Procs = []int{128, 256}
)

// BarrierSweep runs the flat barrier for every mechanism at every scale
// and returns the cells in expansion order: scale-major, mechanisms in
// paper order within each scale.
func BarrierSweep(procs []int, opts BarrierOptions) (SweepResults, error) {
	spec := BarrierExperiment{Procs: procs, Options: opts}
	vals, err := runSweep(spec)
	if err != nil {
		return nil, err
	}
	rs := sweepValues[BarrierResult](vals)
	out := make(SweepResults, 0, len(rs))
	i := 0
	for _, p := range procs {
		for _, mech := range Mechanisms {
			out = append(out, SweepResult{Procs: p, Mechanism: mech, Result: rs[i]})
			i++
		}
	}
	return out, nil
}

// Table2 reproduces the paper's Table 2: speedups of ActMsg, Atomic, MAO
// and AMO barriers over the LL/SC baseline at each scale.
func Table2(procs []int, opts BarrierOptions) (*stats.Table, error) {
	res, err := BarrierSweep(procs, opts)
	if err != nil {
		return nil, err
	}
	t := &stats.Table{
		Title:  "Table 2: speedup of barriers over the LL/SC barrier",
		Header: []string{"CPUs", "ActMsg", "Atomic", "MAO", "AMO"},
	}
	for _, p := range procs {
		base := res.At(p, LLSC).CyclesPerBarrier
		t.AddRow(
			stats.I(p),
			stats.F2(Speedup(base, res.At(p, ActMsg).CyclesPerBarrier)),
			stats.F2(Speedup(base, res.At(p, Atomic).CyclesPerBarrier)),
			stats.F2(Speedup(base, res.At(p, MAO).CyclesPerBarrier)),
			stats.F2(Speedup(base, res.At(p, AMO).CyclesPerBarrier)),
		)
	}
	return t, nil
}

// Figure5 reproduces the paper's Figure 5: cycles-per-processor of each
// flat barrier versus scale.
func Figure5(procs []int, opts BarrierOptions) (*stats.Table, error) {
	res, err := BarrierSweep(procs, opts)
	if err != nil {
		return nil, err
	}
	t := &stats.Table{
		Title:  "Figure 5: cycles per processor, flat barriers",
		Header: []string{"CPUs", "LL/SC", "ActMsg", "Atomic", "MAO", "AMO"},
	}
	for _, p := range procs {
		t.AddRow(
			stats.I(p),
			stats.F1(res.At(p, LLSC).CyclesPerProc),
			stats.F1(res.At(p, ActMsg).CyclesPerProc),
			stats.F1(res.At(p, Atomic).CyclesPerProc),
			stats.F1(res.At(p, MAO).CyclesPerProc),
			stats.F1(res.At(p, AMO).CyclesPerProc),
		)
	}
	return t, nil
}

// TreeSweep runs the best-branching tree barrier for every mechanism plus
// flat LL/SC and AMO references at every scale, in ordered slices. The
// whole grid — every branching factor of every (scale, mechanism) cell,
// plus the flat references — is one sweep, so all candidate trees simulate
// in parallel; the best-branching reduction happens afterwards, in
// expansion order (ascending branching, strict less-than), which keeps the
// selected tree independent of worker count.
func TreeSweep(procs []int, opts BarrierOptions) (tree, flatLLSC, flatAMO SweepResults, err error) {
	type cell struct {
		p    int
		mech Mechanism
		flat bool
	}
	var pts []SweepPoint
	var cells []cell
	for _, p := range procs {
		cfg := DefaultConfig(p)
		for _, mech := range Mechanisms {
			for _, b := range TreeBranchings(p) {
				o := opts
				o.Branching = b
				pts = append(pts, BarrierPoint(cfg, mech, o))
				cells = append(cells, cell{p, mech, false})
			}
		}
		pts = append(pts, BarrierPoint(cfg, LLSC, opts))
		cells = append(cells, cell{p, LLSC, true})
		pts = append(pts, BarrierPoint(cfg, AMO, opts))
		cells = append(cells, cell{p, AMO, true})
	}
	vals, err := runPoints(pts)
	if err != nil {
		return nil, nil, nil, err
	}
	for i, r := range sweepValues[BarrierResult](vals) {
		c := cells[i]
		if c.flat {
			if c.mech == LLSC {
				flatLLSC = append(flatLLSC, SweepResult{Procs: c.p, Mechanism: c.mech, Result: r})
			} else {
				flatAMO = append(flatAMO, SweepResult{Procs: c.p, Mechanism: c.mech, Result: r})
			}
			continue
		}
		if n := len(tree); n > 0 && tree[n-1].Procs == c.p && tree[n-1].Mechanism == c.mech {
			if r.CyclesPerBarrier < tree[n-1].Result.CyclesPerBarrier {
				tree[n-1].Result = r
			}
		} else {
			tree = append(tree, SweepResult{Procs: c.p, Mechanism: c.mech, Result: r})
		}
	}
	return tree, flatLLSC, flatAMO, nil
}

// Table3 reproduces the paper's Table 3: speedups of tree-based barriers
// (best branching factor per cell) over the flat LL/SC baseline, with flat
// AMO as the final column.
func Table3(procs []int, opts BarrierOptions) (*stats.Table, error) {
	tree, flatLLSC, flatAMO, err := TreeSweep(procs, opts)
	if err != nil {
		return nil, err
	}
	t := &stats.Table{
		Title:  "Table 3: speedup of tree-based barriers over the LL/SC barrier",
		Header: []string{"CPUs", "LL/SC+tree", "ActMsg+tree", "Atomic+tree", "MAO+tree", "AMO+tree", "AMO"},
	}
	for _, p := range procs {
		base := flatLLSC.At(p, LLSC).CyclesPerBarrier
		t.AddRow(
			stats.I(p),
			stats.F2(Speedup(base, tree.At(p, LLSC).CyclesPerBarrier)),
			stats.F2(Speedup(base, tree.At(p, ActMsg).CyclesPerBarrier)),
			stats.F2(Speedup(base, tree.At(p, Atomic).CyclesPerBarrier)),
			stats.F2(Speedup(base, tree.At(p, MAO).CyclesPerBarrier)),
			stats.F2(Speedup(base, tree.At(p, AMO).CyclesPerBarrier)),
			stats.F2(Speedup(base, flatAMO.At(p, AMO).CyclesPerBarrier)),
		)
	}
	return t, nil
}

// Figure6 reproduces the paper's Figure 6: cycles-per-processor of
// tree-based barriers versus scale.
func Figure6(procs []int, opts BarrierOptions) (*stats.Table, error) {
	tree, _, _, err := TreeSweep(procs, opts)
	if err != nil {
		return nil, err
	}
	t := &stats.Table{
		Title:  "Figure 6: cycles per processor, tree-based barriers (best branching)",
		Header: []string{"CPUs", "LL/SC+tree", "ActMsg+tree", "Atomic+tree", "MAO+tree", "AMO+tree"},
	}
	for _, p := range procs {
		t.AddRow(
			stats.I(p),
			stats.F1(tree.At(p, LLSC).CyclesPerProc),
			stats.F1(tree.At(p, ActMsg).CyclesPerProc),
			stats.F1(tree.At(p, Atomic).CyclesPerProc),
			stats.F1(tree.At(p, MAO).CyclesPerProc),
			stats.F1(tree.At(p, AMO).CyclesPerProc),
		)
	}
	return t, nil
}

// LockSweep runs ticket and array locks for every mechanism at every
// scale, in expansion order: scale-major, then mechanism, then kind.
func LockSweep(procs []int, opts LockOptions) (LockSweepResults, error) {
	spec := LockExperiment{Procs: procs, Options: opts}
	vals, err := runSweep(spec)
	if err != nil {
		return nil, err
	}
	rs := sweepValues[LockResult](vals)
	out := make(LockSweepResults, 0, len(rs))
	i := 0
	for _, p := range procs {
		for _, mech := range Mechanisms {
			for _, kind := range []LockKind{Ticket, Array} {
				out = append(out, LockSweepResult{Procs: p, Mechanism: mech, Kind: kind, Result: rs[i]})
				i++
			}
		}
	}
	return out, nil
}

// Table4 reproduces the paper's Table 4: speedups of ticket and array locks
// under each mechanism over the LL/SC ticket lock.
func Table4(procs []int, opts LockOptions) (*stats.Table, error) {
	res, err := LockSweep(procs, opts)
	if err != nil {
		return nil, err
	}
	t := &stats.Table{
		Title:  "Table 4: speedup of locks over the LL/SC ticket lock",
		Header: []string{"CPUs", "LL/SC tkt", "LL/SC arr", "ActMsg tkt", "ActMsg arr", "Atomic tkt", "Atomic arr", "MAO tkt", "MAO arr", "AMO tkt", "AMO arr"},
	}
	for _, p := range procs {
		base := res.At(p, LLSC, Ticket).CyclesPerPass
		row := []string{stats.I(p)}
		for _, mech := range []Mechanism{LLSC, ActMsg, Atomic, MAO, AMO} {
			for _, kind := range []LockKind{Ticket, Array} {
				row = append(row, stats.F2(Speedup(base, res.At(p, mech, kind).CyclesPerPass)))
			}
		}
		t.AddRow(row...)
	}
	return t, nil
}

// Figure7 reproduces the paper's Figure 7: network traffic of ticket locks
// normalized to the LL/SC version, at large scales.
func Figure7(procs []int, opts LockOptions) (*stats.Table, error) {
	spec := LockExperiment{Procs: procs, Kinds: []LockKind{Ticket}, Options: opts}
	vals, err := runSweep(spec)
	if err != nil {
		return nil, err
	}
	rs := sweepValues[LockResult](vals)
	t := &stats.Table{
		Title:  "Figure 7: ticket-lock network traffic (byte-hops) normalized to LL/SC",
		Header: []string{"CPUs", "LL/SC", "ActMsg", "Atomic", "MAO", "AMO"},
	}
	i := 0
	for _, p := range procs {
		row := []string{stats.I(p)}
		var base float64
		for range Mechanisms {
			traffic := float64(rs[i].ByteHops)
			if i%len(Mechanisms) == 0 {
				base = traffic
			}
			row = append(row, stats.F2(traffic/base))
			i++
		}
		t.AddRow(row...)
	}
	return t, nil
}

// Figure1 reproduces the paper's Figure 1 message-count comparison: one-way
// network messages for a three-processor barrier arrival phase.
func Figure1() (*stats.Table, error) {
	pts := make([]SweepPoint, len(Mechanisms))
	for i, mech := range Mechanisms {
		mech := mech
		pts[i] = SweepPoint{
			Label: fmt.Sprintf("figure1 %s", mech),
			Key:   sweep.KeyOf("figure1", int(mech)),
			Run: func() (any, error) {
				n, err := IncrementMessageCount(mech)
				if err != nil {
					return nil, err
				}
				return n, nil
			},
		}
	}
	vals, err := runPoints(pts)
	if err != nil {
		return nil, err
	}
	t := &stats.Table{
		Title:  "Figure 1: one-way network messages, 3-CPU barrier arrival (paper: LL/SC 18, AMO 6)",
		Header: []string{"Mechanism", "Messages"},
	}
	for i, mech := range Mechanisms {
		t.AddRow(mech.String(), stats.U(vals[i].(uint64)))
	}
	return t, nil
}

// AblationAMUCache compares AMO barrier latency with the AMU operand cache
// disabled, one word, and the default eight words (design point A1).
func AblationAMUCache(procs []int, opts BarrierOptions) (*stats.Table, error) {
	words := []int{0, 1, 8}
	var pts []SweepPoint
	for _, p := range procs {
		for _, w := range words {
			cfg := DefaultConfig(p)
			cfg.AMUCacheWords = w
			pts = append(pts, BarrierPoint(cfg, AMO, opts))
		}
	}
	vals, err := runPoints(pts)
	if err != nil {
		return nil, err
	}
	rs := sweepValues[BarrierResult](vals)
	t := &stats.Table{
		Title:  "Ablation A1: AMO barrier cycles/barrier vs AMU cache size",
		Header: []string{"CPUs", "0 words", "1 word", "8 words"},
	}
	i := 0
	for _, p := range procs {
		row := []string{stats.I(p)}
		for range words {
			row = append(row, stats.F1(rs[i].CyclesPerBarrier))
			i++
		}
		t.AddRow(row...)
	}
	return t, nil
}

// AblationUpdate compares the paper's delayed (test-value) update against
// updating on every amo.inc (design point A2): the barrier variable is
// incremented with FlagUpdateAlways so each arrival pushes word updates to
// all spinners.
func AblationUpdate(procs []int, opts BarrierOptions) (*stats.Table, error) {
	aopts := opts
	aopts.AMOUpdateAlways = true
	var pts []SweepPoint
	for _, p := range procs {
		cfg := DefaultConfig(p)
		pts = append(pts, BarrierPoint(cfg, AMO, opts), BarrierPoint(cfg, AMO, aopts))
	}
	vals, err := runPoints(pts)
	if err != nil {
		return nil, err
	}
	rs := sweepValues[BarrierResult](vals)
	t := &stats.Table{
		Title:  "Ablation A2: AMO barrier, delayed vs always update (cycles/barrier)",
		Header: []string{"CPUs", "delayed", "always", "msgs delayed", "msgs always"},
	}
	for i, p := range procs {
		delayed, always := rs[2*i], rs[2*i+1]
		t.AddRow(stats.I(p),
			stats.F1(delayed.CyclesPerBarrier), stats.F1(always.CyclesPerBarrier),
			stats.F1(delayed.NetMessagesPerBarrier), stats.F1(always.NetMessagesPerBarrier))
	}
	return t, nil
}

// ApplicationTable (experiment E8, ours) runs three verified parallel
// kernels — a 1-D stencil, a Hillis–Steele prefix sum, and a contended
// histogram — end to end under LL/SC, MAO and AMO synchronization on the
// given backend, and reports total application cycles. This is the paper's
// motivation measured directly: the same program gets faster by swapping
// the synchronization mechanism.
func ApplicationTable(procs []int, backend Backend) (*stats.Table, error) {
	spec := WorkloadExperiment{Procs: procs, RunConfig: RunConfig{Backend: backend}}
	vals, err := runSweep(spec)
	if err != nil {
		return nil, err
	}
	rs := sweepValues[workload.Result](vals)
	t := &stats.Table{
		Title:  "Applications: total cycles (verified kernels)" + Config{Backend: backend}.Tag(),
		Header: []string{"app", "CPUs", "LL/SC", "MAO", "AMO", "AMO speedup"},
	}
	const mechsPerApp = 3 // the spec's default LLSC, MAO, AMO columns
	i := 0
	for _, p := range procs {
		for _, app := range WorkloadApps {
			cycles := [mechsPerApp]uint64{rs[i].Cycles, rs[i+1].Cycles, rs[i+2].Cycles}
			i += mechsPerApp
			t.AddRow(app, stats.I(p),
				stats.U(cycles[0]), stats.U(cycles[1]), stats.U(cycles[2]),
				stats.F2(float64(cycles[0])/float64(cycles[2])))
		}
	}
	return t, nil
}

// AblationNaiveCoding (A5) measures the value of the paper's Figure 3(b)
// spin-variable optimization: conventional barriers coded naively (spin on
// the barrier variable itself) versus optimized, with AMO's naive coding
// as the reference that needs no such trick.
func AblationNaiveCoding(procs []int, opts BarrierOptions) (*stats.Table, error) {
	nopts := opts
	nopts.NaiveConventional = true
	var pts []SweepPoint
	for _, p := range procs {
		cfg := DefaultConfig(p)
		for _, mech := range []Mechanism{LLSC, MAO} {
			pts = append(pts, BarrierPoint(cfg, mech, nopts), BarrierPoint(cfg, mech, opts))
		}
		pts = append(pts, BarrierPoint(cfg, AMO, opts))
	}
	vals, err := runPoints(pts)
	if err != nil {
		return nil, err
	}
	rs := sweepValues[BarrierResult](vals)
	t := &stats.Table{
		Title:  "Ablation A5: naive (Fig 3a) vs optimized (Fig 3b) conventional barriers, cycles/barrier",
		Header: []string{"CPUs", "LL/SC naive", "LL/SC opt", "MAO naive", "MAO opt", "AMO"},
	}
	const perScale = 5 // LL/SC naive+opt, MAO naive+opt, AMO
	for i, p := range procs {
		row := []string{stats.I(p)}
		for _, r := range rs[i*perScale : (i+1)*perScale] {
			row = append(row, stats.F1(r.CyclesPerBarrier))
		}
		t.AddRow(row...)
	}
	return t, nil
}

// AblationMulticast (A6) measures the paper's footnote 2: AMO barriers on
// a network with hardware multicast for the update wave.
func AblationMulticast(procs []int, opts BarrierOptions) (*stats.Table, error) {
	var pts []SweepPoint
	for _, p := range procs {
		base := DefaultConfig(p)
		mc := DefaultConfig(p)
		mc.MulticastUpdates = true
		pts = append(pts, BarrierPoint(base, AMO, opts), BarrierPoint(mc, AMO, opts))
	}
	vals, err := runPoints(pts)
	if err != nil {
		return nil, err
	}
	rs := sweepValues[BarrierResult](vals)
	t := &stats.Table{
		Title:  "Ablation A6: AMO barrier with serialized vs multicast updates, cycles/barrier",
		Header: []string{"CPUs", "serialized", "multicast"},
	}
	for i, p := range procs {
		t.AddRow(stats.I(p), stats.F1(rs[2*i].CyclesPerBarrier), stats.F1(rs[2*i+1].CyclesPerBarrier))
	}
	return t, nil
}

// appStencil runs the standard stencil kernel configuration for benchmarks.
func appStencil(cfg Config, mech Mechanism) (uint64, error) {
	r, err := workload.Stencil(cfg, mech, 4, 4)
	return r.Cycles, err
}

// ExtensionMCS compares the MCS queue lock against ticket and array locks
// for the LL/SC and AMO mechanisms (our extension table): the paper argues
// complex queue locks become unnecessary with AMOs.
func ExtensionMCS(procs []int, opts LockOptions) (*stats.Table, error) {
	spec := LockExperiment{
		Procs:   procs,
		Mechs:   []Mechanism{LLSC, AMO},
		Kinds:   []LockKind{Ticket, Array, MCS},
		Options: opts,
	}
	vals, err := runSweep(spec)
	if err != nil {
		return nil, err
	}
	rs := sweepValues[LockResult](vals)
	t := &stats.Table{
		Title:  "Extension: cycles per lock pass — ticket vs array vs MCS",
		Header: []string{"CPUs", "LL/SC tkt", "LL/SC arr", "LL/SC mcs", "AMO tkt", "AMO arr", "AMO mcs"},
	}
	const perScale = 6 // 2 mechanisms x 3 kinds
	for i, p := range procs {
		row := []string{stats.I(p)}
		for _, r := range rs[i*perScale : (i+1)*perScale] {
			row = append(row, stats.F1(r.CyclesPerPass))
		}
		t.AddRow(row...)
	}
	return t, nil
}

// AblationInterconnect compares the AMO and LL/SC barriers on the paper's
// radix-8 fat tree against a Cray-T3E-style 2D torus (design point A4):
// AMO latency is dominated by one network round trip plus the update wave,
// so topology shifts both mechanisms without changing who wins.
func AblationInterconnect(procs []int, opts BarrierOptions) (*stats.Table, error) {
	var pts []SweepPoint
	for _, p := range procs {
		for _, mech := range []Mechanism{LLSC, AMO} {
			for _, ic := range []string{"fattree", "torus"} {
				cfg := DefaultConfig(p)
				cfg.Interconnect = ic
				pts = append(pts, BarrierPoint(cfg, mech, opts))
			}
		}
	}
	vals, err := runPoints(pts)
	if err != nil {
		return nil, err
	}
	rs := sweepValues[BarrierResult](vals)
	t := &stats.Table{
		Title:  "Ablation A4: barrier cycles/barrier, fat tree vs 2D torus",
		Header: []string{"CPUs", "LL/SC fattree", "LL/SC torus", "AMO fattree", "AMO torus"},
	}
	const perScale = 4 // 2 mechanisms x 2 topologies
	for i, p := range procs {
		row := []string{stats.I(p)}
		for _, r := range rs[i*perScale : (i+1)*perScale] {
			row = append(row, stats.F1(r.CyclesPerBarrier))
		}
		t.AddRow(row...)
	}
	return t, nil
}

// AblationTree reports the tree-barrier branching-factor grid for one
// mechanism (design point A3).
func AblationTree(mech Mechanism, procs []int, opts BarrierOptions) (*stats.Table, error) {
	type cell struct{ p, b int }
	var pts []SweepPoint
	var cells []cell
	for _, p := range procs {
		cfg := DefaultConfig(p)
		for _, b := range TreeBranchings(p) {
			o := opts
			o.Branching = b
			pts = append(pts, BarrierPoint(cfg, mech, o))
			cells = append(cells, cell{p, b})
		}
	}
	vals, err := runPoints(pts)
	if err != nil {
		return nil, err
	}
	t := &stats.Table{
		Title:  fmt.Sprintf("Ablation A3: %s tree barrier cycles/barrier by branching factor", mech),
		Header: []string{"CPUs", "branching", "cycles/barrier", "cycles/proc"},
	}
	for i, r := range sweepValues[BarrierResult](vals) {
		t.AddRow(stats.I(cells[i].p), stats.I(cells[i].b), stats.F1(r.CyclesPerBarrier), stats.F1(r.CyclesPerProc))
	}
	return t, nil
}

// BackendTable compares the three memory-system backends — the paper's
// CC-NUMA/AMU machine, SynCron-style NDP sync engines, and coherence-free
// disaggregated shared memory — across the whole primitive suite: flat
// barriers and ticket locks under every mechanism, plus the verified
// application kernels under AMO. Each row names its own unit because the
// primitives measure different things (cycles/barrier, cycles/pass, total
// cycles). The grid is one sweep, so all backends simulate in parallel and
// rows assemble from the ordered result slice, byte-identical at any worker
// count.
func BackendTable(procs []int, bopts BarrierOptions, lopts LockOptions) (*stats.Table, error) {
	type cell struct {
		p    int
		name string
	}
	var pts []SweepPoint
	var cells []cell
	for _, p := range procs {
		for _, mech := range Mechanisms {
			for _, b := range Backends {
				o := bopts
				o.Backend = b
				pts = append(pts, BarrierPoint(DefaultConfig(p), mech, o))
			}
			cells = append(cells, cell{p, fmt.Sprintf("barrier %s (cyc/barrier)", mech)})
		}
		for _, mech := range Mechanisms {
			for _, b := range Backends {
				o := lopts
				o.Backend = b
				pts = append(pts, LockPoint(DefaultConfig(p), Ticket, mech, o))
			}
			cells = append(cells, cell{p, fmt.Sprintf("ticket %s (cyc/pass)", mech)})
		}
		for _, app := range WorkloadApps {
			s, ok := workload.ByName(app)
			if !ok {
				return nil, fmt.Errorf("amosim: unknown workload %q", app)
			}
			for _, b := range Backends {
				cfg := RunConfig{Backend: b}.apply(DefaultConfig(p))
				pts = append(pts, s.Point(cfg, AMO, workload.RunConfig{}))
			}
			cells = append(cells, cell{p, fmt.Sprintf("%s AMO (total cyc)", app)})
		}
	}
	vals, err := runPoints(pts)
	if err != nil {
		return nil, err
	}
	t := &stats.Table{
		Title:  "Backends: AMO machine vs SynCron NDP vs disaggregated shared memory",
		Header: []string{"CPUs", "primitive", "amo", "syncron", "dsm"},
	}
	i := 0
	for _, c := range cells {
		row := []string{stats.I(c.p), c.name}
		for range Backends {
			switch v := vals[i].(type) {
			case BarrierResult:
				row = append(row, stats.F1(v.CyclesPerBarrier))
			case LockResult:
				row = append(row, stats.F1(v.CyclesPerPass))
			case workload.Result:
				row = append(row, stats.U(v.Cycles))
			default:
				return nil, fmt.Errorf("amosim: unexpected backend-table cell %T", v)
			}
			i++
		}
		t.AddRow(row...)
	}
	return t, nil
}
