// Package bench is the simulator's benchmark. It runs one of three named
// workloads (see workloads.go) through the public API of amosim and its
// internal packages, as whole rounds of a fixed amount of work, checks every
// round's outputs against pinned goldens and references, and reports host
// metrics: end to end on an untraced run, per layer on a traced run. Every
// layer is measured from outside: result snapshots for deterministic counts,
// timed calls into public functions, and a sampled CPU profile attributed to
// the package that was running (see profile.go). See README.md.
package bench

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"syscall"
	"time"
)

// endToEnd names the metrics of an untraced run's summary, in the order
// BENCHMARK.json declares them.
var endToEnd = []string{"wall_ref_s", "peak_rss_mb", "setup_s"}

// perLayer names the metrics of a traced run's summary, in the order
// BENCHMARK.json declares them. A traced run reports more (every sampled
// layer, the workload's own figures); those are printed beside the summary.
var perLayer = []string{
	"trace.wall_ref_s", "host.total_s", "host.cpu_util",
	"host.sim_switch_s", "host.sim_heap_s", "host.machine_s", "host.cache_s",
	"host.network_s", "host.directory_s", "host.memsys_s", "host.core_s",
	"host.proc_s", "host.syncprim_s", "host.gc_s", "host.other_s",
	"host.alloc_mb", "host.mallocs", "host.gc_cycles",
	"sweep.points", "sweep.cache_hits", "sweep.cache_misses",
	"net.messages", "net.local_messages", "net.hops", "net.byte_hops", "net.transit_cycles",
	"dir.interventions", "dir.invalidations", "dir.word_updates", "dir.occupancy_cycles",
	"mem.reads", "mem.writes",
	"cache.hits", "cache.misses", "cache.hit_ratio", "cache.evictions",
	"amu.ops", "amu.hit_ratio", "amu.fine_puts", "amu.recalls", "amu.occupancy_cycles",
	"cpu.sc_failures", "cpu.amsg_nacks", "cpu.amsg_retries", "cpu.amsg_served",
	"cpu.compute_cycles", "cpu.stall_cycles", "cpu.spin_cycles",
	"sync.ops", "sync.overflows", "sync.forwards",
	"dsm.remote_loads", "dsm.remote_stores", "dsm.remote_atomics",
}

// setupRuns is how many times a run repeats its workload's set-up; setup_s
// is the median of their scaled times.
const setupRuns = 5

// hostWorkers is the host parallelism of every workload: sweep workers and
// parallel-kernel shards. It is fixed, not taken from the host, so the
// numbers measure the program rather than the machine it runs on.
const hostWorkers = 2

// Metric is one measured value with its unit.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Result is a run's summary: the line the command prints last.
type Result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]Metric `json:"metrics"`
}

// Report is a finished run: its summary plus every other figure it
// measured, which the command prints before the summary.
type Report struct {
	Result
	Extra map[string]Metric
}

// Options selects one run.
type Options struct {
	// Workload is one of Workloads.
	Workload string
	// Seed makes the workload's random inputs; workloads without random
	// inputs ignore it.
	Seed uint64
	// Seconds is the measuring time: rounds start until it has passed, and
	// at least one round runs.
	Seconds float64
	// TraceDir, when set, makes the run a traced run. It writes the CPU
	// profile (cpu.pprof), the bench-level spans (spans.json) and every
	// metric (metrics.json) there.
	TraceDir string

	// smoke selects the reduced sizes the tests run.
	smoke bool
}

// round is what one round of a workload did, as its check found it.
type round struct {
	ops, failed int
	// errs holds the first failures, for the log.
	errs []error
	// counts are deterministic: every round of a run must repeat them.
	counts map[string]Metric
	// host are host measurements; a run reports their median over rounds.
	host map[string]Metric
	// samples are per-op host times in ms; a run pools them over rounds
	// and reports their median (.p50), 95th percentile (.p95) and count
	// (.n).
	samples map[string][]float64
}

func (r *round) fail(err error) {
	r.failed++
	if len(r.errs) < 3 {
		r.errs = append(r.errs, err)
	}
}

// workload is one named benchmark workload.
type workload interface {
	// setup computes the references rounds are checked against. It runs
	// setupRuns times and must give the same references every time.
	setup() error
	// startRound resets the round's state and returns its units: the
	// pieces of its fixed work, which run one after another.
	startRound() []unit
	// check verifies the last round's outputs and counts them.
	check() round
}

// unit is one piece of a round's work, short enough for the host's speed
// to hold steady through it. In an untraced run each unit runs right after
// a calibration probe; run records its inner spans under parent.
type unit struct {
	name string
	run  func(sp *spans, parent int)
}

// Run executes one benchmark run.
func Run(o Options) (Report, error) {
	w, err := newWorkload(o.Workload, o.Seed, o.smoke)
	if err != nil {
		return Report{}, err
	}
	var setups, probes []float64
	for i := 0; i < setupRuns; i++ {
		p := probe()
		probes = append(probes, ms(p))
		start := time.Now()
		if err := w.setup(); err != nil {
			return Report{}, fmt.Errorf("bench: %s set-up: %w", o.Workload, err)
		}
		setups = append(setups, time.Since(start).Seconds()*refProbe.Seconds()/p.Seconds())
	}

	var sp *spans
	var prof bytes.Buffer
	if o.TraceDir != "" {
		if err := os.MkdirAll(o.TraceDir, 0o755); err != nil {
			return Report{}, err
		}
		sp = newSpans()
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return Report{}, err
		}
	}

	var rep Report
	var walls, refWalls, cpus []float64
	var counts map[string]Metric
	host := map[string][]Metric{}
	samples := map[string][]float64{}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	start := time.Now()
	for len(walls) == 0 || time.Since(start).Seconds() < o.Seconds {
		// An untraced run probes before every unit and after the last, and
		// scales each unit by the mean of the scales at its two ends. A
		// profile would count the probe's goroutine hand-offs as the
		// simulator's process switches, so a traced run does not probe
		// here; it scales its rounds after the loop instead.
		rid := sp.begin(0, "round")
		var times, scales []float64
		calibrate := func() {
			if sp == nil {
				p := probe()
				probes = append(probes, ms(p))
				scales = append(scales, refProbe.Seconds()/p.Seconds())
			}
		}
		var cpu float64
		for _, u := range w.startRound() {
			calibrate()
			id := sp.begin(rid, u.name)
			cpu0, t0 := cpuSeconds(), time.Now()
			u.run(sp, id)
			times = append(times, time.Since(t0).Seconds())
			cpu += cpuSeconds() - cpu0
			sp.end(id)
		}
		calibrate()
		sp.end(rid)
		var wall, refWall float64
		for i, t := range times {
			wall += t
			if sp == nil {
				refWall += t * (scales[i] + scales[i+1]) / 2
			}
		}
		walls, refWalls, cpus = append(walls, wall), append(refWalls, refWall), append(cpus, cpu)

		r := w.check()
		if counts == nil {
			counts = r.counts
		} else if !sameMetrics(counts, r.counts) {
			r.fail(fmt.Errorf("round %d: deterministic counts differ from round 1", len(walls)))
		}
		for _, err := range r.errs {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", o.Workload, err)
		}
		rep.Attempted += r.ops
		rep.Failed += r.failed
		for k, m := range r.host {
			host[k] = append(host[k], m)
		}
		for k, v := range r.samples {
			samples[k] = append(samples[k], v...)
		}
	}
	loop := time.Since(start).Seconds()
	runtime.ReadMemStats(&ms1)
	rounds := float64(len(walls))
	if sp != nil {
		pprof.StopCPUProfile()
		for i := 0; i < setupRuns; i++ {
			probes = append(probes, ms(probe()))
		}
		for i, wall := range walls {
			refWalls[i] = wall * ms(refProbe) / median(probes)
		}
	}

	all := map[string]Metric{
		"wall_ref_s":     {median(refWalls), "s"},
		"wall_s":         {median(walls), "s"},
		"cpu_s":          {median(cpus), "s"},
		"probe_ms":       {median(probes), "ms"},
		"peak_rss_mb":    {peakRSSMB(), "MB"},
		"setup_s":        {median(setups), "s"},
		"rounds":         {rounds, "count"},
		"host.alloc_mb":  {float64(ms1.TotalAlloc-ms0.TotalAlloc) / rounds / (1 << 20), "MB"},
		"host.mallocs":   {float64(ms1.Mallocs-ms0.Mallocs) / rounds, "count"},
		"host.gc_cycles": {float64(ms1.NumGC-ms0.NumGC) / rounds, "count"},
		"fail_ratio":     {float64(rep.Failed) / float64(max(rep.Attempted, 1)), "ratio"},
	}
	for k, m := range counts {
		all[k] = m
	}
	for k, series := range host {
		vals := make([]float64, len(series))
		for i, m := range series {
			vals[i] = m.Value
		}
		all[k] = Metric{median(vals), series[0].Unit}
	}
	for k, v := range samples {
		all[k+".p50"] = Metric{median(v), "ms"}
		all[k+".p95"] = Metric{quantile(v, 0.95), "ms"}
		all[k+".n"] = Metric{float64(len(v)), "count"}
	}

	names := endToEnd
	if o.TraceDir != "" {
		if err := writeTrace(o.TraceDir, prof.Bytes(), sp, all, rounds, loop); err != nil {
			return Report{}, err
		}
		names = perLayer
	}
	rep.Correct = rep.Failed == 0
	rep.Metrics, rep.Extra = split(all, names)
	for _, n := range names {
		if _, ok := rep.Metrics[n]; !ok {
			return Report{}, fmt.Errorf("bench: %s did not measure %s", o.Workload, n)
		}
	}
	if o.TraceDir != "" {
		doc, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return Report{}, err
		}
		if err := os.WriteFile(filepath.Join(o.TraceDir, "metrics.json"), append(doc, '\n'), 0o644); err != nil {
			return Report{}, err
		}
	}
	return rep, nil
}

// writeTrace finishes a traced run: it writes the profile and spans into
// dir and adds the layer metrics, per round, to all.
func writeTrace(dir string, prof []byte, sp *spans, all map[string]Metric, rounds, loop float64) error {
	profPath := filepath.Join(dir, "cpu.pprof")
	if err := os.WriteFile(profPath, prof, 0o644); err != nil {
		return err
	}
	spansDoc, err := json.MarshalIndent(sp.list, "", " ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(dir, "spans.json"), append(spansDoc, '\n'), 0o644); err != nil {
		return err
	}
	layers, err := profileLayers(profPath, dir)
	if err != nil {
		return err
	}
	for _, l := range layerNames {
		all["host."+l+"_s"] = Metric{0, "s"}
	}
	var total time.Duration
	for l, d := range layers {
		all["host."+l+"_s"] = Metric{d.Seconds() / rounds, "s"}
		total += d
	}
	all["host.total_s"] = Metric{total.Seconds() / rounds, "s"}
	all["host.cpu_util"] = Metric{total.Seconds() / (loop * float64(runtime.GOMAXPROCS(0))), "ratio"}
	all["trace.wall_ref_s"] = all["wall_ref_s"]
	return nil
}

// split divides all into the named metrics and the rest.
func split(all map[string]Metric, names []string) (named, rest map[string]Metric) {
	named, rest = map[string]Metric{}, map[string]Metric{}
	for k, m := range all {
		rest[k] = m
	}
	for _, n := range names {
		if m, ok := rest[n]; ok {
			named[n] = m
			delete(rest, n)
		}
	}
	return named, rest
}

func sameMetrics(a, b map[string]Metric) bool {
	if len(a) != len(b) {
		return false
	}
	for k, m := range a {
		if b[k] != m {
			return false
		}
	}
	return true
}

// median returns the median of vals (the mean of the middle two for an
// even count).
func median(vals []float64) float64 {
	return quantile(vals, 0.5)
}

// quantile returns the q-quantile of vals by linear interpolation between
// closest ranks.
func quantile(vals []float64, q float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[lo]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// cpuSeconds is the process's CPU time so far, user plus system.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return tvSeconds(ru.Utime) + tvSeconds(ru.Stime)
}

func tvSeconds(tv syscall.Timeval) float64 {
	return float64(tv.Sec) + float64(tv.Usec)/1e6
}

// peakRSSMB is the process's peak resident set size in MiB (Linux reports
// ru_maxrss in KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// spans records the bench-level spans of a traced run: name, start, end
// and the span that caused it. A nil *spans records nothing, so untraced
// runs pay one nil check per call. It is not safe for concurrent use.
type spans struct {
	t0   time.Time
	list []span
}

type span struct {
	ID      int     `json:"id"`
	Parent  int     `json:"parent"`
	Name    string  `json:"name"`
	StartMS float64 `json:"start_ms"`
	EndMS   float64 `json:"end_ms"`
}

func newSpans() *spans { return &spans{t0: time.Now()} }

// begin opens a span now and returns its id (0 when s is nil).
func (s *spans) begin(parent int, name string) int {
	if s == nil {
		return 0
	}
	return s.add(parent, name, time.Now(), time.Time{})
}

// end closes span id now.
func (s *spans) end(id int) {
	if s == nil {
		return
	}
	s.list[id-1].EndMS = s.ms(time.Now())
}

// add records a span with known bounds; a zero end leaves it open.
func (s *spans) add(parent int, name string, start, end time.Time) int {
	if s == nil {
		return 0
	}
	sp := span{ID: len(s.list) + 1, Parent: parent, Name: name, StartMS: s.ms(start)}
	if !end.IsZero() {
		sp.EndMS = s.ms(end)
	}
	s.list = append(s.list, sp)
	return sp.ID
}

func (s *spans) ms(t time.Time) float64 { return float64(t.Sub(s.t0).Nanoseconds()) / 1e6 }
