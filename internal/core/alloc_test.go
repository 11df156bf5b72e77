package core

import (
	"testing"

	"amosim/internal/network"
	"amosim/internal/sim"
)

// TestAMUSteadyStateZeroAlloc pins the FU pipeline at zero allocations per
// operation once warm: operand-cache hits, and fetch-adds that push one
// pooled fine put each.
func TestAMUSteadyStateZeroAlloc(t *testing.T) {
	for _, c := range []struct {
		name      string
		flags     uint32
		putsPerOp uint64
	}{{"hits", 0, 0}, {"fine-puts", FlagUpdateAlways, 1}} {
		r := newRig(t, 8, 0)
		addr := r.mem.AllocWord(0)
		r.replies = make([]network.Msg, 0, 32)
		r.at = make([]sim.Time, 0, 32)
		burst := func() {
			r.replies, r.at = r.replies[:0], r.at[:0]
			for i := 0; i < 32; i++ {
				r.amo(OpFetchAdd, addr, 1, 0, c.flags)
			}
			r.run(t)
		}
		burst() // fill the operand cache and warm the pools
		if allocs := testing.AllocsPerRun(100, burst); allocs != 0 {
			t.Fatalf("%s: AMU steady state allocates %.1f/burst, want 0", c.name, allocs)
		}
		st := r.amu.Stats()
		if st.CacheHits != st.Ops-1 {
			t.Fatalf("%s: %d hits for %d ops, want all but the first", c.name, st.CacheHits, st.Ops)
		}
		if wantPuts := st.Ops * c.putsPerOp; st.FinePuts != wantPuts {
			t.Fatalf("%s: %d fine puts for %d ops, want %d", c.name, st.FinePuts, st.Ops, wantPuts)
		}
	}
}
