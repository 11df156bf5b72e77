package amosim

import (
	"bytes"
	"testing"
)

// The sweep engine's central promise: parallel and sequential sweeps emit
// byte-identical output. These tests exercise the promise end to end — the
// rendered table text and the metrics bench document the repo checks in — with
// the cache reset between runs so the parallel run actually simulates
// instead of replaying memoized results.

// withWorkers runs f under the given worker-pool size on a cold cache,
// restoring the previous engine state afterwards.
func withWorkers(t *testing.T, n int, f func()) {
	t.Helper()
	prev := SetDefaultRunner(Runner{Workers: n})
	defer SetDefaultRunner(prev)
	ResetSweepCache()
	defer ResetSweepCache()
	f()
}

func TestTableByteIdenticalAcrossWorkers(t *testing.T) {
	procs := []int{4, 8}
	opts := BarrierOptions{Episodes: 2, Warmup: 1}
	var seq, par string
	withWorkers(t, 1, func() {
		tb, err := Table2(procs, opts)
		if err != nil {
			t.Fatal(err)
		}
		seq = tb.Render()
	})
	withWorkers(t, 4, func() {
		tb, err := Table2(procs, opts)
		if err != nil {
			t.Fatal(err)
		}
		par = tb.Render()
	})
	if seq != par {
		t.Fatalf("Table2 differs between -workers=1 and -workers=4:\n--- sequential ---\n%s\n--- parallel ---\n%s", seq, par)
	}
}

func TestLockTableByteIdenticalAcrossWorkers(t *testing.T) {
	procs := []int{4, 8}
	opts := LockOptions{Acquires: 2}
	var seq, par string
	withWorkers(t, 1, func() {
		tb, err := Table4(procs, opts)
		if err != nil {
			t.Fatal(err)
		}
		seq = tb.Render()
	})
	withWorkers(t, 4, func() {
		tb, err := Table4(procs, opts)
		if err != nil {
			t.Fatal(err)
		}
		par = tb.Render()
	})
	if seq != par {
		t.Fatalf("Table4 differs between -workers=1 and -workers=4:\n--- sequential ---\n%s\n--- parallel ---\n%s", seq, par)
	}
}

func TestBenchMetricsByteIdenticalAcrossWorkers(t *testing.T) {
	var seq, par []byte
	withWorkers(t, 1, func() {
		var err error
		seq, err = Bench("metrics")
		if err != nil {
			t.Fatal(err)
		}
	})
	withWorkers(t, 4, func() {
		var err error
		par, err = Bench("metrics")
		if err != nil {
			t.Fatal(err)
		}
	})
	if !bytes.Equal(seq, par) {
		t.Fatalf("metrics bench document differs between -workers=1 and -workers=4:\n--- sequential ---\n%s\n--- parallel ---\n%s", seq, par)
	}
}

func TestSweepCacheReusedAcrossExperiments(t *testing.T) {
	procs := []int{4, 8}
	opts := BarrierOptions{Episodes: 2, Warmup: 1}
	withWorkers(t, 2, func() {
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

func TestBestTreeBarrierDeterministicAcrossWorkers(t *testing.T) {
	cfg := DefaultConfig(16)
	opts := BarrierOptions{Episodes: 2, Warmup: 1}
	var seq, par BarrierResult
	withWorkers(t, 1, func() {
		var err error
		seq, err = BestTreeBarrier(cfg, AMO, opts)
		if err != nil {
			t.Fatal(err)
		}
	})
	withWorkers(t, 4, func() {
		var err error
		par, err = BestTreeBarrier(cfg, AMO, opts)
		if err != nil {
			t.Fatal(err)
		}
	})
	if seq.Branching != par.Branching || seq.TotalCycles != par.TotalCycles {
		t.Fatalf("BestTreeBarrier selected branching %d (%d cycles) sequentially but %d (%d cycles) in parallel",
			seq.Branching, seq.TotalCycles, par.Branching, par.TotalCycles)
	}
}

func TestSweepResultsAtPanicsOnMissingCell(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("At on a missing cell did not panic")
		}
	}()
	SweepResults{}.At(4, AMO)
}
