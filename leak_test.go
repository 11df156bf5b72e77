package amosim

import (
	"runtime"
	"testing"
	"time"
)

// TestNoGoroutineLeakAcrossRuns guards the Shutdown discipline: every
// experiment runs one coroutine (a goroutine) per simulated CPU, and
// abandoning a machine without stopping them would leak thousands of
// goroutines across a table sweep. Shutdown stops every process carrier,
// idle or parked.
func TestNoGoroutineLeakAcrossRuns(t *testing.T) {
	before := runtime.NumGoroutine()
	for i := 0; i < 30; i++ {
		if _, err := RunBarrier(DefaultConfig(16), AMO, BarrierOptions{Episodes: 2, Warmup: 1}); err != nil {
			t.Fatal(err)
		}
	}
	// Give exiting goroutines a moment to unwind.
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= before+8 {
			break
		}
		runtime.Gosched()
		time.Sleep(10 * time.Millisecond)
	}
	after := runtime.NumGoroutine()
	if after > before+16 {
		t.Fatalf("goroutines grew from %d to %d across 30 runs (leak)", before, after)
	}
}

// TestDeadlockedMachineShutdownUnwinds checks the harder case: a machine
// abandoned mid-deadlock (parked spinners that will never wake) must still
// release its goroutines on Shutdown.
func TestDeadlockedMachineShutdownUnwinds(t *testing.T) {
	before := runtime.NumGoroutine()
	for i := 0; i < 10; i++ {
		m, err := NewMachine(DefaultConfig(8))
		if err != nil {
			t.Fatal(err)
		}
		addr := m.AllocWord(0)
		m.OnAllCPUs(func(c *CPU) {
			c.SpinUntil(addr, Equal(999)) // never
		})
		if _, err := m.Run(); err == nil {
			t.Fatal("expected deadlock")
		}
		m.Shutdown()
	}
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= before+8 {
			break
		}
		runtime.Gosched()
		time.Sleep(10 * time.Millisecond)
	}
	after := runtime.NumGoroutine()
	if after > before+16 {
		t.Fatalf("goroutines grew from %d to %d (deadlocked machines leak)", before, after)
	}
}
