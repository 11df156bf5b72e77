package amosim

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"time"

	"amosim/internal/sweep"
	"amosim/internal/workload"
)

// This file is the unified Experiment API: every sweep in the harness —
// the paper tables, the ablations, the application kernels, the CLIs — is
// expressed as a sweep.Spec (an ordered expansion into independent
// sweep.Points) and executed by a Runner over the parallel sweep engine in
// internal/sweep. A Runner fans points out across Workers OS workers,
// memoizes results in a content-addressed cache, runs each point once
// under a wall-clock deadline, honours context cancellation, and reports
// results in expansion order, byte-identical to a sequential run.

// Aliases for the sweep engine's contract types, so experiment code reads
// in one vocabulary.
type (
	// SweepPoint is one independent, deterministic simulation run.
	SweepPoint = sweep.Point
	// SweepSpec expands one experiment family into ordered points.
	SweepSpec = sweep.Spec
	// SweepEvent reports one completed point to a progress callback.
	SweepEvent = sweep.Event
	// SweepPointError names the exact sweep cell that failed.
	SweepPointError = sweep.PointError
	// SweepCache memoizes point results by content key, deduplicating
	// concurrently in-flight points with equal keys.
	SweepCache = sweep.Cache
)

// NewSweepCache returns an empty sweep result cache for a Runner.
func NewSweepCache() *SweepCache { return sweep.NewCache() }

// ErrSweepTimeout marks a sweep point abandoned at the Runner's
// per-point wall-clock deadline.
var ErrSweepTimeout = sweep.ErrTimeout

// sweepPointTimeout is the default per-point wall-clock safety net for
// harness runs. Simulated deadlocks are detected by the event kernel and
// return promptly; this bounds host-level hangs only, so it is generous.
const sweepPointTimeout = 5 * time.Minute

// Runner executes sweeps. The zero value is usable: all CPUs, no progress
// callback, no cache, the default per-point deadline. Fields are read at
// each RunSweep call; a Runner must not be mutated while a sweep is in
// flight.
type Runner struct {
	// Workers is the worker-pool size. 0 selects runtime.GOMAXPROCS(0);
	// 1 forces the sequential path. Results are byte-identical for every
	// worker count — only wall-clock time changes.
	Workers int
	// Progress, when non-nil, is called once per completed point, in
	// completion order — the engine's one nondeterministic output. Route
	// it to stderr, never into results.
	Progress func(SweepEvent)
	// Cache, when non-nil, memoizes results by point key across sweeps
	// and deduplicates concurrently in-flight equal-key points.
	Cache *SweepCache
	// Timeout is the per-point wall-clock deadline. 0 selects the
	// package default (5 minutes); negative disables it.
	Timeout time.Duration
}

// options assembles the engine options for one sweep under ctx.
func (r *Runner) options(ctx context.Context) sweep.Options {
	timeout := r.Timeout
	if timeout == 0 {
		timeout = sweepPointTimeout
	}
	return sweep.Options{
		Context:  ctx,
		Workers:  r.Workers,
		Cache:    r.Cache,
		Timeout:  timeout,
		Progress: r.Progress,
	}
}

// RunSweep expands spec and executes its points. Results are in expansion
// order; on failure the error is a *SweepPointError naming the failed
// cell. Cancelling ctx skips points not yet started, abandons in-flight
// points promptly, and returns ctx.Err().
func (r *Runner) RunSweep(ctx context.Context, spec SweepSpec) ([]any, error) {
	return sweep.Run(spec, r.options(ctx))
}

// RunSweepPoints executes an explicit point list (see RunSweep).
func (r *Runner) RunSweepPoints(ctx context.Context, points []SweepPoint) ([]any, error) {
	return sweep.RunPoints(points, r.options(ctx))
}

// The default Runner behind the package-level wrappers below. Every table
// generator and CLI that does not build its own Runner shares it — and
// therefore shares its result cache.
var (
	sweepMu       sync.Mutex
	defaultRunner = Runner{Cache: sweep.NewCache()}
)

// DefaultRunner returns a copy of the package's shared Runner as currently
// configured (its Cache pointer is shared, so sweeps run on the copy still
// memoize globally).
func DefaultRunner() Runner {
	sweepMu.Lock()
	defer sweepMu.Unlock()
	return defaultRunner
}

// SetDefaultRunner installs r as the package's shared Runner — the one
// behind DefaultRunner and every table generator that is not handed an
// explicit Runner — and returns the previous configuration. A nil r.Cache
// inherits the current shared cache, so reconfiguring workers or progress
// does not drop memoized results. Do not call while a sweep is in flight.
func SetDefaultRunner(r Runner) Runner {
	sweepMu.Lock()
	defer sweepMu.Unlock()
	prev := defaultRunner
	if r.Cache == nil {
		r.Cache = prev.Cache
	}
	defaultRunner = r
	return prev
}

// runSweep and runPoints are the internal execution path of every table
// generator in this package: a copy of the shared Runner under a background
// context. External callers with cancellation or private caches build their
// own Runner.
func runSweep(spec SweepSpec) ([]any, error) {
	r := DefaultRunner()
	return r.RunSweep(context.Background(), spec)
}

func runPoints(points []SweepPoint) ([]any, error) {
	r := DefaultRunner()
	return r.RunSweepPoints(context.Background(), points)
}

// SweepWorkers reports the default Runner's effective worker-pool size.
func SweepWorkers() int {
	sweepMu.Lock()
	defer sweepMu.Unlock()
	if defaultRunner.Workers == 0 {
		return runtime.GOMAXPROCS(0)
	}
	return defaultRunner.Workers
}

// ResetSweepCache drops every result memoized by the default Runner.
// Sweeps after a reset re-simulate from scratch; results are unchanged
// (the cache is a pure memoization of deterministic runs). In-flight
// points complete against their private entries and are dropped.
func ResetSweepCache() {
	sweepMu.Lock()
	c := defaultRunner.Cache
	sweepMu.Unlock()
	c.Reset()
}

// SweepCacheStats reports hit/miss counters of the default Runner's cache.
func SweepCacheStats() sweep.CacheStats {
	sweepMu.Lock()
	c := defaultRunner.Cache
	sweepMu.Unlock()
	return c.Stats()
}

// sweepValues converts an engine result slice to its concrete type.
func sweepValues[T any](vals []any) []T {
	out := make([]T, len(vals))
	for i, v := range vals {
		out[i] = v.(T)
	}
	return out
}

// BarrierPoint returns the sweep point for one barrier experiment:
// RunBarrier(cfg, mech, opts) on a fresh machine. The key digests the full
// (config, mechanism, defaulted options) input, so identical cells across
// sweeps — Table 2 and Figure 5 share every point, tree sweeps share their
// flat references — are simulated once.
func BarrierPoint(cfg Config, mech Mechanism, opts BarrierOptions) SweepPoint {
	opts = opts.WithDefaults()
	cfg = opts.apply(cfg)
	return SweepPoint{
		Label: fmt.Sprintf("barrier %s p=%d b=%d%s", mech, cfg.Processors, opts.Branching, cfg.Tag()),
		Key:   sweep.KeyOf("barrier", cfg, int(mech), opts),
		Run: func() (any, error) {
			r, err := RunBarrier(cfg, mech, opts)
			if err != nil {
				return nil, err
			}
			return r, nil
		},
	}
}

// LockPoint returns the sweep point for one lock experiment:
// RunLock(cfg, kind, mech, opts) on a fresh machine.
func LockPoint(cfg Config, kind LockKind, mech Mechanism, opts LockOptions) SweepPoint {
	opts = opts.WithDefaults()
	cfg = opts.apply(cfg)
	return SweepPoint{
		Label: fmt.Sprintf("lock %s %s p=%d%s", kind, mech, cfg.Processors, cfg.Tag()),
		Key:   sweep.KeyOf("lock", cfg, int(kind), int(mech), opts),
		Run: func() (any, error) {
			r, err := RunLock(cfg, kind, mech, opts)
			if err != nil {
				return nil, err
			}
			return r, nil
		},
	}
}

// BarrierExperiment is the unified barrier sweep: the flat (or
// fixed-branching) barrier at every scale in Procs under every mechanism
// in Mechanisms, expanded scale-major. It is the Spec behind Table 2 and
// Figure 5.
type BarrierExperiment struct {
	// Procs lists the scales; each uses DefaultConfig.
	Procs []int
	// Mechs lists the mechanisms (nil selects all five, paper order).
	Mechs []Mechanism
	// Options applies to every cell.
	Options BarrierOptions
}

// Points implements SweepSpec: for each scale, for each mechanism.
func (e BarrierExperiment) Points() []SweepPoint {
	mechs := e.Mechs
	if mechs == nil {
		mechs = Mechanisms
	}
	pts := make([]SweepPoint, 0, len(e.Procs)*len(mechs))
	for _, p := range e.Procs {
		for _, mech := range mechs {
			pts = append(pts, BarrierPoint(DefaultConfig(p), mech, e.Options))
		}
	}
	return pts
}

// LockExperiment is the unified lock sweep: every (scale, mechanism, lock
// kind) cell, expanded scale-major then mechanism then kind. It is the
// Spec behind Table 4.
type LockExperiment struct {
	// Procs lists the scales; each uses DefaultConfig.
	Procs []int
	// Mechs lists the mechanisms (nil selects all five, paper order).
	Mechs []Mechanism
	// Kinds lists the lock algorithms (nil selects Ticket and Array, the
	// paper's Table 4 pair).
	Kinds []LockKind
	// Options applies to every cell.
	Options LockOptions
}

// Points implements SweepSpec.
func (e LockExperiment) Points() []SweepPoint {
	mechs := e.Mechs
	if mechs == nil {
		mechs = Mechanisms
	}
	kinds := e.Kinds
	if kinds == nil {
		kinds = []LockKind{Ticket, Array}
	}
	pts := make([]SweepPoint, 0, len(e.Procs)*len(mechs)*len(kinds))
	for _, p := range e.Procs {
		for _, mech := range mechs {
			for _, kind := range kinds {
				pts = append(pts, LockPoint(DefaultConfig(p), kind, mech, e.Options))
			}
		}
	}
	return pts
}

// WorkloadApps lists the classic phased application kernels in
// presentation order (the rows of the applications and backend tables).
// The open-loop traffic workloads are listed separately by TrafficApps.
var WorkloadApps = []string{"stencil", "prefixsum", "histogram"}

// workloadRC projects the cross-cutting selectors a workload spec consumes
// out of the root RunConfig (backend/kernel overrides travel inside the
// resolved Config itself, via apply).
func (rc RunConfig) workloadRC() workload.RunConfig {
	return workload.RunConfig{ChaosSeed: rc.ChaosSeed, ChaosLevel: rc.ChaosLevel}
}

// workloadNames lists every registered workload spec name.
func workloadNames() []string {
	specs := workload.All()
	names := make([]string, len(specs))
	for i, s := range specs {
		names[i] = s.Name()
	}
	return names
}

// WorkloadExperiment is the unified application sweep: every kernel in
// Apps at every scale under every mechanism, expanded scale-major then app
// then mechanism. It is the Spec behind the applications table.
type WorkloadExperiment struct {
	// Procs lists the scales; each uses DefaultConfig.
	Procs []int
	// Mechs lists the mechanisms (nil selects LLSC, MAO, AMO — the
	// baseline, the conventional memory-side design, and the paper's).
	Mechs []Mechanism
	// Apps lists the kernels (nil selects WorkloadApps).
	Apps []string
	// RunConfig selects backend, event kernel and fault injection for
	// every cell (the zero value is the default amo machine).
	RunConfig
}

// Points implements SweepSpec. Unknown app names panic: the expansion is
// driven by package-internal tables, so a bad name is a programming error.
func (e WorkloadExperiment) Points() []SweepPoint {
	mechs := e.Mechs
	if mechs == nil {
		mechs = []Mechanism{LLSC, MAO, AMO}
	}
	apps := e.Apps
	if apps == nil {
		apps = WorkloadApps
	}
	pts := make([]SweepPoint, 0, len(e.Procs)*len(apps)*len(mechs))
	for _, p := range e.Procs {
		cfg := e.apply(DefaultConfig(p))
		for _, app := range apps {
			s, ok := workload.ByName(app)
			if !ok {
				panic(fmt.Sprintf("amosim: unknown workload %q (have %v)", app, workloadNames()))
			}
			for _, mech := range mechs {
				pts = append(pts, s.Point(cfg, mech, e.workloadRC()))
			}
		}
	}
	return pts
}

// SweepResult is one (scale, mechanism) cell of a barrier sweep, in
// expansion order. Sweeps return ordered slices — not maps — so iterating
// a sweep result is deterministic without sorting boilerplate.
type SweepResult struct {
	Procs     int
	Mechanism Mechanism
	Result    BarrierResult
}

// SweepResults is an ordered barrier sweep, scale-major.
type SweepResults []SweepResult

// At returns the cell for (procs, mech). It panics if the sweep does not
// contain the cell: a sweep always contains every cell it was asked for,
// so a miss is a harness programming error, not a run condition.
func (rs SweepResults) At(procs int, mech Mechanism) BarrierResult {
	for _, r := range rs {
		if r.Procs == procs && r.Mechanism == mech {
			return r.Result
		}
	}
	panic(fmt.Sprintf("amosim: sweep has no cell (procs=%d, %v)", procs, mech))
}

// LockSweepResult is one (scale, mechanism, kind) cell of a lock sweep.
type LockSweepResult struct {
	Procs     int
	Mechanism Mechanism
	Kind      LockKind
	Result    LockResult
}

// LockSweepResults is an ordered lock sweep, scale-major then mechanism
// then kind.
type LockSweepResults []LockSweepResult

// At returns the cell for (procs, mech, kind); it panics on a missing
// cell (see SweepResults.At).
func (rs LockSweepResults) At(procs int, mech Mechanism, kind LockKind) LockResult {
	for _, r := range rs {
		if r.Procs == procs && r.Mechanism == mech && r.Kind == kind {
			return r.Result
		}
	}
	panic(fmt.Sprintf("amosim: lock sweep has no cell (procs=%d, %v, %v)", procs, mech, kind))
}
