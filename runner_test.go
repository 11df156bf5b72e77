package amosim

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

// TestRunnerRunSweepCancelsMidSweep is the Runner API's cancellation
// contract: cancelling the context while points are in flight returns
// promptly with ctx.Err(), skipping points not yet started.
func TestRunnerRunSweepCancelsMidSweep(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	started := make(chan struct{})
	block := make(chan struct{})
	var once sync.Once
	points := make([]SweepPoint, 16)
	for i := range points {
		points[i] = SweepPoint{
			Label: fmt.Sprintf("blocked-%d", i),
			Run: func() (any, error) {
				once.Do(func() { close(started) })
				<-block
				return nil, nil
			},
		}
	}
	r := Runner{Workers: 2}
	done := make(chan error, 1)
	go func() {
		_, err := r.RunSweepPoints(ctx, points)
		done <- err
	}()
	<-started
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled sweep returned %v, want context.Canceled", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("sweep did not return promptly after cancel (blocked points should be abandoned)")
	}
	close(block) // release the abandoned point goroutines
}

// TestRunnerRunSweepCompletes runs a real (tiny) experiment spec through
// the new API and checks results arrive in expansion order.
func TestRunnerRunSweepCompletes(t *testing.T) {
	spec := BarrierExperiment{Procs: []int{4}, Options: BarrierOptions{Episodes: 1, Warmup: 1}}
	r := Runner{Workers: 2, Cache: NewSweepCache()}
	vals, err := r.RunSweep(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(vals) != len(Mechanisms) {
		t.Fatalf("got %d results, want %d", len(vals), len(Mechanisms))
	}
	for i, mech := range Mechanisms {
		br, ok := vals[i].(BarrierResult)
		if !ok || br.Mechanism != mech.String() {
			t.Fatalf("result %d = %#v, want BarrierResult for %v", i, vals[i], mech)
		}
	}
	if st := r.Cache.Stats(); st.Misses == 0 {
		t.Fatalf("runner cache unused: %+v", st)
	}
}

// TestRunnerDeadline checks Runner.Timeout bounds a hung point.
func TestRunnerDeadline(t *testing.T) {
	block := make(chan struct{})
	defer close(block)
	points := []SweepPoint{{
		Label: "hang",
		Run: func() (any, error) {
			<-block
			return nil, nil
		},
	}}
	r := Runner{Workers: 1, Timeout: 20 * time.Millisecond}
	_, err := r.RunSweepPoints(context.Background(), points)
	var pe *SweepPointError
	if !errors.As(err, &pe) || !errors.Is(err, ErrSweepTimeout) {
		t.Fatalf("got %v, want point error wrapping the sweep timeout", err)
	}
}

// TestSetDefaultRunnerSharesCacheAndWorkers checks the SetDefaultRunner /
// DefaultRunner pair: reconfiguring workers keeps the shared cache, and the
// configuration is visible through SweepWorkers and DefaultRunner.
func TestSetDefaultRunnerSharesCacheAndWorkers(t *testing.T) {
	prev := SetDefaultRunner(Runner{Workers: 3})
	defer SetDefaultRunner(prev)
	if got := SweepWorkers(); got != 3 {
		t.Fatalf("SweepWorkers() = %d, want 3", got)
	}
	r := DefaultRunner()
	if r.Workers != 3 {
		t.Fatalf("DefaultRunner().Workers = %d, want 3", r.Workers)
	}
	if r.Cache != prev.Cache {
		t.Fatalf("SetDefaultRunner with nil Cache dropped the shared cache")
	}
	vals, err := r.RunSweepPoints(context.Background(),
		[]SweepPoint{{Label: "one", Run: func() (any, error) { return 42, nil }}})
	if err != nil || len(vals) != 1 || vals[0].(int) != 42 {
		t.Fatalf("RunSweepPoints = %v, %v", vals, err)
	}
}

// TestSweepCacheReusedAcrossExperiments checks that experiments sharing
// cells share their simulations through the default Runner's cache.
func TestSweepCacheReusedAcrossExperiments(t *testing.T) {
	procs := []int{4, 8}
	opts := BarrierOptions{Episodes: 2, Warmup: 1}
	withRunner(Runner{Workers: 2}, func() {
		if _, err := Table2(procs, opts); err != nil {
			t.Fatal(err)
		}
		after := SweepCacheStats()
		wantPoints := uint64(len(procs) * len(Mechanisms))
		if after.Misses != wantPoints || after.Hits != 0 {
			t.Fatalf("cold-cache Table2: stats %+v, want %d misses, 0 hits", after, wantPoints)
		}
		// Figure 5 covers the identical grid: every cell must be a hit.
		if _, err := Figure5(procs, opts); err != nil {
			t.Fatal(err)
		}
		st := SweepCacheStats()
		if st.Misses != wantPoints || st.Hits != after.Hits+wantPoints {
			t.Fatalf("Figure5 after Table2 re-simulated: stats %+v, want %d misses and %d hits", st, wantPoints, wantPoints)
		}
	})
}

func TestSweepResultsAtPanicsOnMissingCell(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("At on a missing cell did not panic")
		}
	}()
	SweepResults{}.At(4, AMO)
}
