// Package sweep is the parallel sweep engine behind the experiment
// harness: it fans fully independent, deterministic simulation runs out
// across a pool of OS workers while guaranteeing results byte-identical to
// a sequential run.
//
// # The contract
//
// A Point is one self-contained run: its Run closure builds a fresh
// simulated machine, executes, and returns a result. Points must not share
// mutable state with each other — workers execute them concurrently, and
// the engine provides no synchronization between point bodies. The engine
// itself is machine-blind: it cannot import the machine packages (enforced
// by the amolint sweepshare rule), so a worker can never be handed a
// shared *machine.Machine by construction; machines exist only inside
// Point.Run closures built by the experiment layer.
//
// # Determinism
//
// Results are reported in expansion order (index i of RunPoints' input
// yields result i of its output), regardless of the order workers finish.
// Because every point is independent, deterministic, and reads no engine
// state, the result slice for a given point list is byte-for-byte
// identical whether Workers is 1 or GOMAXPROCS — only wall-clock time
// changes. Progress callbacks fire in completion order, which is the one
// deliberately nondeterministic output; route them to stderr, never into
// results.
//
// # Options convention
//
// Option structs across the module (BarrierOptions, LockOptions, Options
// here) follow one convention, implemented by DefaultInt: a field left at
// its zero value selects the documented default, applied exactly once at
// the point where the options are consumed. Fields where zero is a
// meaningful setting document a negative sentinel instead (see the root
// package's Runner.Timeout).
package sweep

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/pprof"
	"sync"
	"sync/atomic"
	"time"
)

// Point is one independent, deterministic simulation run.
type Point struct {
	// Label identifies the point in errors and progress events
	// ("barrier AMO p=64 b=4").
	Label string
	// Key is the content-address of the run: a digest of every input that
	// determines its result (see KeyOf). Points with equal keys are
	// interchangeable, so a cache may satisfy one with another's result.
	// Empty disables caching for the point.
	Key string
	// Run executes the point. It must build all mutable state (the
	// machine, the synchronization primitives) itself and must not touch
	// state owned by any other point: workers call Run concurrently.
	Run func() (any, error)
}

// Spec expands one experiment family into its ordered points. Results are
// reported in the same order, so a Spec's expansion order is part of its
// output contract.
type Spec interface {
	// Points returns the expansion in deterministic order.
	Points() []Point
}

// Options tunes Run/RunPoints. The zero value selects every default.
type Options struct {
	// Context, when non-nil, cancels the sweep: points not yet started are
	// skipped and in-flight points are abandoned as soon as the context
	// is done, with RunPoints returning ctx.Err(). Nil means no
	// cancellation (context.Background()).
	Context context.Context
	// Workers is the worker-pool size (default runtime.GOMAXPROCS(0)).
	// Workers == 1 reproduces the sequential path exactly: points run one
	// at a time in expansion order.
	Workers int
	// Cache, when non-nil, memoizes results by Point.Key across calls and
	// deduplicates concurrently in-flight points with equal keys.
	Cache *Cache
	// Timeout is the per-point wall-clock deadline, a safety net against
	// harness hangs (a simulated deadlock is detected by the event kernel
	// and returns promptly as an error; this guards the host-level rest).
	// Zero disables it. A timed-out point abandons its goroutine. A point
	// runs once: it is a deterministic simulation, so a rerun would fail
	// the same way.
	Timeout time.Duration
	// Progress, when non-nil, is called exactly once per point as it
	// completes (in completion order, serialized by the engine).
	Progress func(Event)
}

// Event reports one completed point to Options.Progress.
type Event struct {
	// Index is the point's position in the expansion.
	Index int
	// Label is the point's label.
	Label string
	// Done counts completed points including this one; Total is the
	// expansion size.
	Done, Total int
	// Cached reports that the result came from the cache without running.
	Cached bool
	// Err is the point's final error, if it failed.
	Err error
}

// PointError wraps a failed point with its identity, so a sweep error
// names the exact (index, label) cell that failed.
type PointError struct {
	// Index is the point's position in the expansion; Label its label.
	Index int
	Label string
	// Err is the point's error; a simulated deadlock stays reachable
	// through errors.As.
	Err error
}

func (e *PointError) Error() string {
	return fmt.Sprintf("sweep: point %d (%s) failed: %v", e.Index, e.Label, e.Err)
}

func (e *PointError) Unwrap() error { return e.Err }

// ErrTimeout marks a point abandoned at Options.Timeout.
var ErrTimeout = errors.New("sweep: run exceeded its wall-clock deadline")

// DefaultInt implements the module's options convention: v == 0 selects
// the documented default def, any other value (including negatives, which
// option fields may document as explicit "off" sentinels) is returned
// unchanged.
func DefaultInt(v, def int) int {
	if v == 0 {
		return def
	}
	return v
}

// Run expands spec and executes its points under opts.
func Run(spec Spec, opts Options) ([]any, error) {
	return RunPoints(spec.Points(), opts)
}

// RunPoints executes points across the worker pool and returns their
// results in expansion order: result i belongs to points[i]. On failure it
// returns the *PointError of the lowest-indexed failed point (later points
// may be skipped once a failure is observed; their results are nil).
func RunPoints(points []Point, opts Options) ([]any, error) {
	workers := DefaultInt(opts.Workers, runtime.GOMAXPROCS(0))
	if workers < 1 {
		workers = 1
	}
	if workers > len(points) {
		workers = len(points)
	}
	ctx := opts.Context
	if ctx == nil {
		ctx = context.Background()
	}

	results := make([]any, len(points))
	errs := make([]error, len(points))
	var next atomic.Int64
	var failed atomic.Bool
	var progressMu sync.Mutex
	completed := 0

	report := func(i int, cached bool, err error) {
		if opts.Progress == nil {
			return
		}
		progressMu.Lock()
		completed++
		opts.Progress(Event{
			Index: i, Label: points[i].Label,
			Done: completed, Total: len(points),
			Cached: cached, Err: err,
		})
		progressMu.Unlock()
	}

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(points) {
					return
				}
				if failed.Load() || ctx.Err() != nil {
					continue // drain remaining indexes without running
				}
				v, cached, err := runPoint(ctx, points[i], i, opts)
				results[i], errs[i] = v, err
				if err != nil {
					failed.Store(true)
				}
				report(i, cached, err)
			}
		}()
	}
	wg.Wait()

	if err := ctx.Err(); err != nil {
		return results, err
	}
	for _, err := range errs {
		if err != nil {
			return results, err
		}
	}
	return results, nil
}

// runPoint executes one point once, through the cache when one is set. It
// reports whether the result was served from the cache.
func runPoint(ctx context.Context, p Point, index int, opts Options) (any, bool, error) {
	if p.Run == nil {
		return nil, false, &PointError{Index: index, Label: p.Label, Err: errors.New("sweep: point has nil Run")}
	}
	run := func() (v any, err error) {
		// Label the run so a -cpuprofile/-memprofile capture attributes
		// samples to the sweep point that produced them.
		pprof.Do(ctx, pprof.Labels("sweep_point", p.Label), func(ctx context.Context) {
			v, err = attempt(ctx, p.Run, opts.Timeout)
		})
		if err != nil {
			return nil, &PointError{Index: index, Label: p.Label, Err: err}
		}
		return v, nil
	}
	if opts.Cache != nil && p.Key != "" {
		return opts.Cache.Do(p.Key, run)
	}
	v, err := run()
	return v, false, err
}

// attempt invokes run, bounding it by the wall-clock timeout when one is
// set and abandoning it when ctx is cancelled. On timeout or cancellation
// the run's goroutine is abandoned (it holds only point-private state,
// so nothing it later does can corrupt other runs).
func attempt(ctx context.Context, run func() (any, error), timeout time.Duration) (any, error) {
	if timeout <= 0 && ctx.Done() == nil {
		return run()
	}
	type outcome struct {
		v   any
		err error
	}
	ch := make(chan outcome, 1)
	go func() {
		v, err := run()
		ch <- outcome{v, err}
	}()
	var deadline <-chan time.Time
	if timeout > 0 {
		timer := time.NewTimer(timeout)
		defer timer.Stop()
		deadline = timer.C
	}
	select {
	case o := <-ch:
		return o.v, o.err
	case <-deadline:
		return nil, ErrTimeout
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}
