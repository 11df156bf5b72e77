package sim

import "testing"

// TestArenaFreeListExhaustionAndGrowth pins the event arena's recycling
// contract: the arena grows only while the free list is empty, dispatch
// returns every slot to the free list exactly once, and a warm arena
// serves a same-sized burst without growing.
func TestArenaFreeListExhaustionAndGrowth(t *testing.T) {
	e := NewSequential()
	const k = 8
	for i := 0; i < k; i++ {
		schedule(e, Time(i), func() {})
	}
	if len(e.q.arena) != k || len(e.q.free) != 0 {
		t.Fatalf("cold burst: arena %d free %d, want %d/0", len(e.q.arena), len(e.q.free), k)
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(e.q.free) != k {
		t.Fatalf("after run: free list has %d slots, want %d", len(e.q.free), k)
	}
	seen := make(map[int32]bool)
	for _, id := range e.q.free {
		if id < 0 || int(id) >= len(e.q.arena) {
			t.Fatalf("free list holds out-of-range slot %d (arena %d)", id, len(e.q.arena))
		}
		if seen[id] {
			t.Fatalf("slot %d recycled twice", id)
		}
		seen[id] = true
	}
	// A warm same-sized burst drains the free list without growing.
	for i := 0; i < k; i++ {
		schedule(e, Time(i), func() {})
	}
	if len(e.q.arena) != k {
		t.Fatalf("warm burst grew the arena to %d, want %d (reuse)", len(e.q.arena), k)
	}
	if len(e.q.free) != 0 {
		t.Fatalf("warm burst left %d free slots, want 0 (exhausted)", len(e.q.free))
	}
	// One past exhaustion grows by exactly one slot.
	schedule(e, 0, func() {})
	if len(e.q.arena) != k+1 {
		t.Fatalf("overflow event grew arena to %d, want %d", len(e.q.arena), k+1)
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(e.q.free) != k+1 {
		t.Fatalf("after second run: free list has %d slots, want %d", len(e.q.free), k+1)
	}
}
