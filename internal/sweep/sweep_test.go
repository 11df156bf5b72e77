package sweep

import (
	"errors"
	"fmt"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"amosim/internal/sim"
)

// intPoints builds n points whose results encode their index.
func intPoints(n int) []Point {
	pts := make([]Point, n)
	for i := range pts {
		i := i
		pts[i] = Point{
			Label: fmt.Sprintf("p%d", i),
			Run:   func() (any, error) { return i * i, nil },
		}
	}
	return pts
}

func TestResultsInExpansionOrder(t *testing.T) {
	for _, workers := range []int{1, 4, 16} {
		vals, err := RunPoints(intPoints(37), Options{Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i, v := range vals {
			if v.(int) != i*i {
				t.Fatalf("workers=%d: result[%d] = %v, want %d", workers, i, v, i*i)
			}
		}
	}
}

func TestParallelMatchesSequential(t *testing.T) {
	seq, err := RunPoints(intPoints(23), Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	par, err := RunPoints(intPoints(23), Options{Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seq, par) {
		t.Fatalf("parallel results differ from sequential:\n%v\n%v", seq, par)
	}
}

func TestErrorNamesLowestIndexedPoint(t *testing.T) {
	pts := intPoints(6)
	pts[1].Run = func() (any, error) { return nil, errors.New("boom-1") }
	pts[4].Run = func() (any, error) { return nil, errors.New("boom-4") }
	_, err := RunPoints(pts, Options{Workers: 1})
	var pe *PointError
	if !errors.As(err, &pe) {
		t.Fatalf("error %v is not a *PointError", err)
	}
	if pe.Index != 1 || pe.Label != "p1" {
		t.Fatalf("error names point %d (%s), want 1 (p1): %v", pe.Index, pe.Label, err)
	}
}

// A failed point runs once, with or without a cache (a point is a
// deterministic simulation, so a rerun would fail the same way), and a
// simulated deadlock stays reachable through the wrap.
func TestDeadlockIsCapturedAndNeverRetried(t *testing.T) {
	for _, cache := range []*Cache{nil, NewCache()} {
		var calls atomic.Int32
		dead := &sim.ErrDeadlock{At: 1234, Procs: 3}
		pts := []Point{{
			Label: "deadlocks",
			Key:   KeyOf("deadlocks"),
			Run: func() (any, error) {
				calls.Add(1)
				return nil, fmt.Errorf("wrapped: %w", dead)
			},
		}}
		_, err := RunPoints(pts, Options{Workers: 1, Cache: cache})
		var pe *PointError
		if !errors.As(err, &pe) || pe.Index != 0 || pe.Label != "deadlocks" {
			t.Fatalf("cache %v: error %v is not point 0's *PointError", cache != nil, err)
		}
		if calls.Load() != 1 {
			t.Fatalf("cache %v: failed point ran %d times, want 1", cache != nil, calls.Load())
		}
		var dl *sim.ErrDeadlock
		if !errors.As(err, &dl) || dl.At != 1234 {
			t.Fatalf("cache %v: deadlock cause not preserved through the wrap: %v", cache != nil, err)
		}
	}
}

func TestTimeoutAbandonsAttempt(t *testing.T) {
	release := make(chan struct{})
	defer close(release)
	pts := []Point{{
		Label: "hangs",
		Run: func() (any, error) {
			<-release
			return nil, nil
		},
	}}
	_, err := RunPoints(pts, Options{Workers: 1, Timeout: 5 * time.Millisecond})
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("error = %v, want ErrTimeout", err)
	}
}

// TestWorkersOverlapExecution proves the pool actually runs points
// concurrently: eight 20ms waits complete in well under the 160ms a
// sequential pass needs. Wait-based points make the check independent of
// host core count (a single-core CI machine still overlaps timers), with
// a 1.5x margin against scheduler noise.
func TestWorkersOverlapExecution(t *testing.T) {
	const n, wait = 8, 20 * time.Millisecond
	mk := func() []Point {
		pts := make([]Point, n)
		for i := range pts {
			pts[i] = Point{
				Label: fmt.Sprintf("wait%d", i),
				Run: func() (any, error) {
					time.Sleep(wait)
					return nil, nil
				},
			}
		}
		return pts
	}
	start := time.Now()
	if _, err := RunPoints(mk(), Options{Workers: 1}); err != nil {
		t.Fatal(err)
	}
	seq := time.Since(start)
	start = time.Now()
	if _, err := RunPoints(mk(), Options{Workers: 4}); err != nil {
		t.Fatal(err)
	}
	par := time.Since(start)
	if par*3 > seq*2 { // require > 1.5x speedup
		t.Fatalf("4 workers took %v vs %v sequential; points are not overlapping", par, seq)
	}
}

func TestProgressCountsEveryPoint(t *testing.T) {
	var dones []int
	total := 0
	_, err := RunPoints(intPoints(12), Options{Workers: 4, Progress: func(e Event) {
		dones = append(dones, e.Done)
		total = e.Total
	}})
	if err != nil {
		t.Fatal(err)
	}
	if len(dones) != 12 || total != 12 {
		t.Fatalf("progress fired %d times (total %d), want 12", len(dones), total)
	}
	for i, d := range dones {
		if d != i+1 {
			t.Fatalf("Done sequence %v not monotonic", dones)
		}
	}
}

func TestCacheMemoizesAcrossCalls(t *testing.T) {
	c := NewCache()
	var runs atomic.Int32
	mk := func() []Point {
		return []Point{{
			Label: "cached",
			Key:   KeyOf("test", 42),
			Run: func() (any, error) {
				runs.Add(1)
				return "value", nil
			},
		}}
	}
	if _, err := RunPoints(mk(), Options{Workers: 1, Cache: c}); err != nil {
		t.Fatal(err)
	}
	vals, err := RunPoints(mk(), Options{Workers: 1, Cache: c})
	if err != nil {
		t.Fatal(err)
	}
	if runs.Load() != 1 || vals[0] != "value" {
		t.Fatalf("runs=%d vals=%v, want single execution with cached value", runs.Load(), vals)
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Entries != 1 {
		t.Fatalf("stats = %+v, want 1 hit, 1 miss, 1 entry", st)
	}
}

func TestCacheDeduplicatesInFlight(t *testing.T) {
	c := NewCache()
	var runs atomic.Int32
	key := KeyOf("dup", "x")
	pts := make([]Point, 8)
	for i := range pts {
		pts[i] = Point{
			Label: fmt.Sprintf("dup%d", i),
			Key:   key,
			Run: func() (any, error) {
				runs.Add(1)
				time.Sleep(2 * time.Millisecond) // widen the in-flight window
				return "shared", nil
			},
		}
	}
	vals, err := RunPoints(pts, Options{Workers: 8, Cache: c})
	if err != nil {
		t.Fatal(err)
	}
	if runs.Load() != 1 {
		t.Fatalf("equal-key points executed %d times, want 1", runs.Load())
	}
	for i, v := range vals {
		if v != "shared" {
			t.Fatalf("vals[%d] = %v", i, v)
		}
	}
}

func TestCacheErrorsAreNotCached(t *testing.T) {
	c := NewCache()
	var calls atomic.Int32
	run := func() (any, error) {
		if calls.Add(1) == 1 {
			return nil, errors.New("first fails")
		}
		return 7, nil
	}
	if _, _, err := c.Do("k", run); err == nil {
		t.Fatal("expected first Do to fail")
	}
	v, hit, err := c.Do("k", run)
	if err != nil || hit || v != 7 {
		t.Fatalf("Do after failure = (%v, %v, %v), want re-execution", v, hit, err)
	}
}

func TestKeyOfDeterministicAndDiscriminating(t *testing.T) {
	type cfg struct{ P, Q int }
	a := KeyOf("barrier", cfg{4, 2}, "AMO")
	b := KeyOf("barrier", cfg{4, 2}, "AMO")
	if a != b {
		t.Fatalf("identical inputs digested differently: %s vs %s", a, b)
	}
	if a == KeyOf("barrier", cfg{8, 2}, "AMO") {
		t.Fatal("different configs share a key")
	}
	if a == KeyOf("lock", cfg{4, 2}, "AMO") {
		t.Fatal("different families share a key")
	}
	if a == KeyOf("barrier", cfg{4, 2}, "MAO") {
		t.Fatal("different mechanisms share a key")
	}
}

func TestSpecExpansionRuns(t *testing.T) {
	spec := testSpec{n: 5}
	vals, err := Run(spec, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(vals) != 5 || vals[4].(int) != 16 {
		t.Fatalf("vals = %v", vals)
	}
}

type testSpec struct{ n int }

func (s testSpec) Points() []Point { return intPoints(s.n) }

func TestDefaultInt(t *testing.T) {
	if DefaultInt(0, 8) != 8 || DefaultInt(3, 8) != 3 || DefaultInt(-1, 8) != -1 {
		t.Fatal("DefaultInt convention broken")
	}
}
