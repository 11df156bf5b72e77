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

// TestAMUUncachedSteadyStateZeroAlloc pins uncached stores and loads at
// zero allocations once warm, to an AMU-cached word and to a word served
// from memory: each access rides a pooled record that keeps nothing of the
// delivered message.
func TestAMUUncachedSteadyStateZeroAlloc(t *testing.T) {
	r := newRig(t, 8, 0)
	cached, plain := r.mem.AllocWord(0), r.mem.AllocWord(0)
	r.mao(cached, 1) // the AMU caches this word from here on
	r.run(t)
	r.replies = make([]network.Msg, 0, 64)
	r.at = make([]sim.Time, 0, 64)
	send := func(kind network.Kind, addr, val, txn uint64) {
		r.net.Send(&network.Msg{Kind: kind, Src: network.Endpoint{Node: 1, CPU: 2}, Dst: network.Hub(0), Addr: addr, Value: val, Txn: txn})
	}
	base := uint64(100)
	burst := func() {
		r.replies, r.at = r.replies[:0], r.at[:0]
		base += 16
		for i := uint64(0); i < 16; i++ {
			send(network.KindUncachedStore, cached, base+i, 2*i)
			send(network.KindUncachedLoad, cached, 0, 2*i+1)
			send(network.KindUncachedStore, plain, base+i, 0)
			send(network.KindUncachedLoad, plain, 0, 0)
		}
		r.run(t)
	}
	burst() // warm the record pool and the event arena
	if allocs := testing.AllocsPerRun(100, burst); allocs != 0 {
		t.Fatalf("uncached accesses allocate %.1f/burst, want 0", allocs)
	}
	var loads, acks int
	for _, m := range r.replies {
		switch m.Kind {
		case network.KindUncachedLoadReply:
			loads++
			if m.Addr == cached && m.Value != base+m.Txn/2 {
				t.Errorf("load %d of the AMU-cached word = %d, want %d", m.Txn, m.Value, base+m.Txn/2)
			}
		case network.KindUncachedStoreAck:
			acks++
		}
	}
	if loads != 32 || acks != 32 {
		t.Fatalf("burst got %d load replies and %d store acks, want 32 each", loads, acks)
	}
	if got := r.mem.ReadWord(plain); got != base+15 {
		t.Fatalf("memory = %d after the burst, want %d", got, base+15)
	}
}
