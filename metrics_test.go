package amosim

import (
	"bytes"
	"encoding/json"
	"testing"
)

// TestSnapshotJSONByteIdentical pins the determinism contract of the
// Snapshot API end to end: two identical runs must marshal to
// byte-identical JSON documents (struct order is fixed by declaration;
// encoding/json sorts map keys).
func TestSnapshotJSONByteIdentical(t *testing.T) {
	one := func() []byte {
		r, err := RunBarrier(DefaultConfig(8), MAO, BarrierOptions{Episodes: 3, Warmup: 1})
		if err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(r.Metrics)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	b1, b2 := one(), one()
	if !bytes.Equal(b1, b2) {
		t.Fatalf("identical runs marshaled differently:\n%s\n%s", b1, b2)
	}
	// And the document round-trips through its own type.
	var s Snapshot
	if err := json.Unmarshal(b1, &s); err != nil {
		t.Fatal(err)
	}
	again, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1, again) {
		t.Fatalf("snapshot JSON does not round-trip:\n%s\n%s", b1, again)
	}
}

// TestWindowConservationEveryMechanism asserts, for one barrier and one
// ticket-lock experiment per mechanism, the tentpole invariant: the
// measurement window's per-CPU cycle attribution conserves exactly, and —
// since every CPU spans the whole window — the machine-wide total equals
// procs x window length.
func TestWindowConservationEveryMechanism(t *testing.T) {
	const procs = 8
	cfg := DefaultConfig(procs)
	check := func(t *testing.T, win Snapshot) {
		t.Helper()
		if err := win.CheckConservation(); err != nil {
			t.Fatal(err)
		}
		if win.Cycle == 0 {
			t.Fatal("empty measurement window")
		}
		att := win.Attribution()
		if want := uint64(procs) * win.Cycle; att.TotalCPUCycles != want {
			t.Fatalf("TotalCPUCycles = %d, want procs x window = %d", att.TotalCPUCycles, want)
		}
		if att.Compute+att.MemoryStall+att.SpinIdle != att.TotalCPUCycles {
			t.Fatalf("attribution does not conserve: %+v", att)
		}
	}
	for _, mech := range Mechanisms {
		t.Run(mech.String(), func(t *testing.T) {
			b, err := RunBarrier(cfg, mech, BarrierOptions{Episodes: 3, Warmup: 1})
			if err != nil {
				t.Fatal(err)
			}
			check(t, b.Metrics)
			l, err := RunLock(cfg, Ticket, mech, LockOptions{Acquires: 2})
			if err != nil {
				t.Fatal(err)
			}
			check(t, l.Metrics)
		})
	}
}

// TestShutdownThenMetrics pins the Shutdown interaction (alongside
// leak_test.go's goroutine discipline): after a deadlocked run is abandoned
// and its goroutines unwound, Metrics() must neither panic nor race, and
// the snapshot it returns must still conserve — the unwind may leave CPUs
// mid-wait, which the snapshot finalizes read-only.
func TestShutdownThenMetrics(t *testing.T) {
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
	snap := m.Metrics()
	if err := snap.CheckConservation(); err != nil {
		t.Fatalf("post-Shutdown snapshot: %v", err)
	}
	if snap.Cycle == 0 {
		t.Fatal("post-Shutdown snapshot saw no simulated time")
	}
	// A second snapshot must agree with the first: nothing moves anymore.
	b1, _ := json.Marshal(snap)
	b2, _ := json.Marshal(m.Metrics())
	if !bytes.Equal(b1, b2) {
		t.Fatal("snapshots differ after Shutdown")
	}
}
