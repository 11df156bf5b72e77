package core

import (
	"testing"
	"testing/quick"

	"amosim/internal/directory"
	"amosim/internal/memsys"
	"amosim/internal/network"
	"amosim/internal/sim"
	"amosim/internal/topology"
)

func TestOpApply(t *testing.T) {
	cases := []struct {
		op            Op
		word, operand uint64
		test          uint64
		want          uint64
	}{
		{OpInc, 5, 0, 0, 6},
		{OpFetchAdd, 5, 3, 0, 8},
		{OpFetchAdd, 5, ^uint64(0), 0, 4}, // delta -1 wraps
		{OpSwap, 5, 9, 0, 9},
		{OpCompareSwap, 5, 9, 5, 9}, // expected matches -> swap
		{OpCompareSwap, 5, 9, 4, 5}, // mismatch -> unchanged
	}
	for _, c := range cases {
		if got := c.op.Apply(c.word, c.operand, c.test); got != c.want {
			t.Errorf("%v.Apply(%d, %d, %d) = %d, want %d", c.op, c.word, c.operand, c.test, got, c.want)
		}
	}
}

func TestOpStrings(t *testing.T) {
	for op, want := range map[Op]string{
		OpInc:         "amo.inc",
		OpFetchAdd:    "amo.fetchadd",
		OpSwap:        "amo.swap",
		OpCompareSwap: "amo.cswap",
	} {
		if op.String() != want {
			t.Errorf("%d.String() = %q, want %q", int(op), op.String(), want)
		}
	}
}

func TestOpApplyUnknownPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Op(99).Apply(0, 0, 0)
}

// rig wires an AMU to a real directory, memory and network, with a capture
// endpoint for replies and their arrival cycles.
type rig struct {
	eng     sim.Engine
	net     *network.Network
	mem     *memsys.Memory
	dir     *directory.Controller
	amu     *AMU
	replies []network.Msg
	at      []sim.Time
}

// newRig builds the rig around an AMU with the given operand-cache size and
// spill charge (0 for the paper's AMU, DRAMCycles for a SynCron partition).
func newRig(t *testing.T, cacheWords int, spillCycles uint64) *rig {
	t.Helper()
	eng := sim.NewSequential()
	topo, err := topology.NewFatTree(2, 8)
	if err != nil {
		t.Fatal(err)
	}
	net := network.New(eng, topo, network.Params{HopCycles: 100, BusCycles: 16, MinPacket: 32, HeaderSize: 16})
	mem := memsys.New(2, 128, 60)
	dir := directory.New(eng, net, mem, directory.Params{Node: 0, ProcsPerNode: 2, BlockBytes: 128, DirCycles: 8, DRAMCycles: 60})
	amu := New(eng, net, mem, dir, Params{Node: 0, CacheWords: cacheWords, OpCycles: 2, QueueCycles: 8, DRAMCycles: 60, SpillCycles: spillCycles, BlockBytes: 128})
	dir.SetAMU(amu)
	r := &rig{eng: eng, net: net, mem: mem, dir: dir, amu: amu}
	net.RegisterHub(0, func(m *network.Msg) {
		switch m.Kind {
		case network.KindAMORequest, network.KindMAORequest,
			network.KindUncachedLoad, network.KindUncachedStore:
			amu.Handle(m)
		default:
			dir.Handle(m)
		}
	})
	net.RegisterCPU(2, func(m *network.Msg) {
		r.replies = append(r.replies, *m)
		r.at = append(r.at, eng.Now())
	})
	return r
}

func (r *rig) amo(op Op, addr, operand, test uint64, flags uint32) {
	r.net.Send(&network.Msg{
		Kind:  network.KindAMORequest,
		Src:   network.Endpoint{Node: 1, CPU: 2},
		Dst:   network.Hub(0),
		Addr:  addr,
		Value: operand,
		Aux:   test,
		Op:    int(op),
		Flags: flags,
	})
}

func (r *rig) mao(addr, delta uint64) {
	r.net.Send(&network.Msg{
		Kind:  network.KindMAORequest,
		Src:   network.Endpoint{Node: 1, CPU: 2},
		Dst:   network.Hub(0),
		Addr:  addr,
		Value: delta,
		Op:    int(OpFetchAdd),
		Flags: FlagMAO,
	})
}

func (r *rig) run(t *testing.T) {
	t.Helper()
	if err := r.eng.Run(); err != nil {
		t.Fatalf("engine: %v", err)
	}
}

func TestAMOMissFillsAndHitsCoalesce(t *testing.T) {
	r := newRig(t, 8, 0)
	addr := r.mem.AllocWord(0)
	r.mem.WriteWord(addr, 10)
	for i := 0; i < 5; i++ {
		r.amo(OpInc, addr, 0, 0, 0)
	}
	r.run(t)
	st := r.amu.Stats()
	if st.Ops != 5 {
		t.Fatalf("ops = %d, want 5", st.Ops)
	}
	if st.CacheHits != 4 {
		t.Fatalf("cache hits = %d, want 4 (first op misses)", st.CacheHits)
	}
	// Old values 10..14 returned in order.
	for i, m := range r.replies {
		if m.Kind != network.KindAMOReply || m.Value != uint64(10+i) {
			t.Fatalf("reply %d = %v", i, m)
		}
	}
	// Memory untouched until put/evict/recall.
	if got := r.mem.ReadWord(addr); got != 10 {
		t.Fatalf("memory = %d, want 10 (AMU holds the live value)", got)
	}
	if !r.dir.AMUHolds(addr) {
		t.Fatal("directory not tracking AMU word")
	}
}

func TestAMOTestValueFiresPutOnce(t *testing.T) {
	r := newRig(t, 8, 0)
	addr := r.mem.AllocWord(0)
	for i := 0; i < 4; i++ {
		r.amo(OpInc, addr, 0, 4, FlagTest) // fires when count reaches 4
	}
	r.run(t)
	if puts := r.amu.Stats().FinePuts; puts != 1 {
		t.Fatalf("puts = %d, want 1 (only when result == test)", puts)
	}
	if got := r.mem.ReadWord(addr); got != 4 {
		t.Fatalf("memory = %d, want 4 (put flushed)", got)
	}
}

func TestAMOUpdateAlwaysPutsEveryOp(t *testing.T) {
	r := newRig(t, 8, 0)
	addr := r.mem.AllocWord(0)
	for i := 0; i < 3; i++ {
		r.amo(OpFetchAdd, addr, 2, 0, FlagUpdateAlways)
	}
	r.run(t)
	if puts := r.amu.Stats().FinePuts; puts != 3 {
		t.Fatalf("puts = %d, want 3", puts)
	}
	if got := r.mem.ReadWord(addr); got != 6 {
		t.Fatalf("memory = %d, want 6", got)
	}
}

func TestMAOBypassesDirectory(t *testing.T) {
	r := newRig(t, 8, 0)
	addr := r.mem.AllocWord(0)
	r.mem.WriteWord(addr, 100)
	r.mao(addr, 1)
	r.mao(addr, 1)
	r.run(t)
	if r.dir.AMUHolds(addr) {
		t.Fatal("MAO registered a coherent AMU word")
	}
	if len(r.replies) != 2 || r.replies[0].Value != 100 || r.replies[1].Value != 101 {
		t.Fatalf("replies = %v", r.replies)
	}
}

func TestUncachedLoadSeesAMUValue(t *testing.T) {
	r := newRig(t, 8, 0)
	addr := r.mem.AllocWord(0)
	r.mao(addr, 5) // AMU now holds 5, memory still 0
	r.run(t)
	r.net.Send(&network.Msg{
		Kind: network.KindUncachedLoad,
		Src:  network.Endpoint{Node: 1, CPU: 2},
		Dst:  network.Hub(0),
		Addr: addr,
	})
	r.run(t)
	last := r.replies[len(r.replies)-1]
	if last.Kind != network.KindUncachedLoadReply || last.Value != 5 {
		t.Fatalf("uncached load reply = %v, want value 5 from AMU cache", last)
	}
}

func TestUncachedStoreUpdatesAMUAndMemory(t *testing.T) {
	r := newRig(t, 8, 0)
	addr := r.mem.AllocWord(0)
	r.mao(addr, 1) // AMU caches the word
	r.run(t)
	r.net.Send(&network.Msg{
		Kind:  network.KindUncachedStore,
		Src:   network.Endpoint{Node: 1, CPU: 2},
		Dst:   network.Hub(0),
		Addr:  addr,
		Value: 50,
	})
	r.run(t)
	if got := r.mem.ReadWord(addr); got != 50 {
		t.Fatalf("memory = %d, want 50", got)
	}
	r.mao(addr, 1)
	r.run(t)
	last := r.replies[len(r.replies)-1]
	if last.Value != 50 {
		t.Fatalf("MAO after uncached store saw %d, want 50", last.Value)
	}
}

// TestCapacityEvictionLRU fills a two-word cache past capacity, once as
// the paper's AMU and once as a SynCron partition, whose spill of the LRU
// entry delays the displacing operation by SpillCycles.
func TestCapacityEvictionLRU(t *testing.T) {
	for _, c := range []struct {
		spill   uint64
		thirdAt sim.Time
	}{{0, 666}, {60, 726}} {
		r := newRig(t, 2, c.spill) // two-word AMU cache
		a := r.mem.AllocWord(0)
		b := r.mem.AllocWord(0)
		w := r.mem.AllocWord(0)
		r.amo(OpInc, a, 0, 0, 0)
		r.amo(OpInc, b, 0, 0, 0)
		r.amo(OpInc, w, 0, 0, 0) // evicts a (LRU)
		r.run(t)
		if got := r.mem.ReadWord(a); got != 1 {
			t.Fatalf("spill %d: evicted word a = %d in memory, want 1", c.spill, got)
		}
		if r.dir.AMUHolds(a) {
			t.Fatalf("spill %d: directory still tracks evicted word a", c.spill)
		}
		if !r.dir.AMUHolds(b) || !r.dir.AMUHolds(w) {
			t.Fatalf("spill %d: resident words lost their registration", c.spill)
		}
		if n := r.amu.Overflows(); n != 1 {
			t.Fatalf("spill %d: overflows = %d, want 1", c.spill, n)
		}
		if len(r.at) != 3 || r.at[2] != c.thirdAt {
			t.Fatalf("spill %d: replies at %v, want the third at %d", c.spill, r.at, c.thirdAt)
		}
	}
}

func TestZeroWordCacheTransient(t *testing.T) {
	r := newRig(t, 0, 0)
	addr := r.mem.AllocWord(0)
	for i := 0; i < 3; i++ {
		r.amo(OpInc, addr, 0, 0, 0)
	}
	r.run(t)
	st := r.amu.Stats()
	if st.Ops != 3 {
		t.Fatalf("ops = %d, want 3", st.Ops)
	}
	if st.CacheHits != 0 {
		t.Fatalf("hits = %d, want 0 (no operand cache)", st.CacheHits)
	}
	if got := r.mem.ReadWord(addr); got != 3 {
		t.Fatalf("memory = %d, want 3 (flushed after every op)", got)
	}
}

// TestDirectorylessUnitServesAMOsFromMemory builds the disaggregated-memory
// agent's unit: no directory, no operand cache, zero queue and FU cycles
// and one memory stage. AMO requests, test-gated and update-always alike,
// take the memory-side path: each reply carries the old value, memory
// holds every result before the next operation reads it, and no fine put
// is issued.
func TestDirectorylessUnitServesAMOsFromMemory(t *testing.T) {
	eng := sim.NewSequential()
	topo, err := topology.NewFatTree(2, 8)
	if err != nil {
		t.Fatal(err)
	}
	net := network.New(eng, topo, network.Params{HopCycles: 100, BusCycles: 16, MinPacket: 32, HeaderSize: 16})
	mem := memsys.New(2, 128, 60)
	const stage = 50
	amu := New(eng, net, mem, nil, Params{Node: 0, DRAMCycles: stage, BlockBytes: 128})
	var replies []network.Msg
	net.RegisterCPU(2, func(m *network.Msg) { replies = append(replies, *m) })
	addr := mem.AllocWord(0)
	reqs := []struct {
		op           Op
		operand, aux uint64
		flags        uint32
	}{
		{OpInc, 0, 2, FlagTest}, // the result reaches the test value here
		{OpInc, 0, 2, FlagTest},
		{OpFetchAdd, 5, 0, FlagUpdateAlways},
		{OpFetchAdd, 5, 0, FlagUpdateAlways},
		{OpInc, 0, 12, FlagTest | FlagUpdateAlways},
	}
	for i, q := range reqs {
		amu.Handle(&network.Msg{
			Kind: network.KindAMORequest, Src: network.Endpoint{Node: 1, CPU: 2}, Dst: network.Hub(0),
			Addr: addr, Value: q.operand, Aux: q.aux, Op: int(q.op), Flags: q.flags, Txn: uint64(i),
		})
	}
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	wantOld := []uint64{0, 1, 2, 7, 12}
	if len(replies) != len(wantOld) {
		t.Fatalf("%d replies, want %d", len(replies), len(wantOld))
	}
	for i, m := range replies {
		if m.Kind != network.KindAMOReply || m.Txn != uint64(i) || m.Value != wantOld[i] {
			t.Fatalf("reply %d = %v txn %d old %d, want an AMO reply with old value %d", i, m.Kind, m.Txn, m.Value, wantOld[i])
		}
	}
	if got := mem.ReadWord(addr); got != 13 {
		t.Fatalf("memory = %d, want 13", got)
	}
	if _, held := amu.Peek(addr); held {
		t.Fatal("the unit still holds the word after the run")
	}
	n := uint64(len(reqs))
	if st := amu.Stats(); st.Ops != n || st.CacheHits != 0 || st.FinePuts != 0 || st.OccupancyCycles != n*stage {
		t.Fatalf("stats %+v, want %d ops, no hits, no fine puts and %d occupancy cycles", st, n, n*stage)
	}
	// Each atomic schedules one stage, the memory read; the zero-cycle
	// queue and FU stages run inline. The re-dispatch after each operation
	// and each reply's delivery are one event apiece.
	if got := eng.Executed(); got != 3*n {
		t.Fatalf("Executed = %d, want %d: one stage, one re-dispatch and one reply per atomic", got, 3*n)
	}
}

func TestRecallFlushesAndInvalidates(t *testing.T) {
	r := newRig(t, 8, 0)
	addr := r.mem.AllocWord(0)
	r.amo(OpFetchAdd, addr, 9, 0, 0)
	r.run(t)
	block := memsys.BlockAddr(addr, 128)
	r.amu.Recall(block)
	if got := r.mem.ReadWord(addr); got != 9 {
		t.Fatalf("memory = %d, want 9 after recall", got)
	}
	// Next AMO must miss (re-fetch through the directory).
	before := r.amu.Stats()
	r.amo(OpInc, addr, 0, 0, 0)
	r.run(t)
	after := r.amu.Stats()
	if after.Ops != before.Ops+1 {
		t.Fatalf("op not executed after recall")
	}
	if after.CacheHits != before.CacheHits {
		t.Fatalf("post-recall op hit the cache; expected a miss")
	}
	last := r.replies[len(r.replies)-1]
	if last.Value != 9 {
		t.Fatalf("post-recall AMO old = %d, want 9", last.Value)
	}
}

func TestNewPanicsOnNonPositiveBlockBytes(t *testing.T) {
	for _, bb := range []int{0, -128} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("BlockBytes %d: expected panic", bb)
				}
			}()
			New(sim.NewSequential(), nil, memsys.New(1, 128, 60), nil, Params{CacheWords: 2, BlockBytes: bb})
		}()
	}
}

func TestQuiescedReportsQueuedWork(t *testing.T) {
	r := newRig(t, 8, 0)
	addr := r.mem.AllocWord(0)
	r.amu.Handle(&network.Msg{Kind: network.KindAMORequest, Src: network.Endpoint{Node: 1, CPU: 2}, Dst: network.Hub(0), Addr: addr, Op: int(OpInc)})
	if r.amu.Quiesced() == nil {
		t.Fatal("AMU with a request in flight reported quiesced")
	}
	r.run(t)
	if err := r.amu.Quiesced(); err != nil {
		t.Fatal(err)
	}
}

// Property: a random sequence of AMO fetch-adds ends with the sum of all
// deltas, whatever the cache size.
func TestAMOSumProperty(t *testing.T) {
	f := func(deltas []uint8, cacheWords uint8) bool {
		if len(deltas) == 0 || len(deltas) > 40 {
			return true
		}
		rigT := &testing.T{}
		r := newRig(rigT, int(cacheWords%4), 0)
		addr := r.mem.AllocWord(0)
		var want uint64
		for _, d := range deltas {
			r.amo(OpFetchAdd, addr, uint64(d), 0, 0)
			want += uint64(d)
		}
		if err := r.eng.Run(); err != nil {
			return false
		}
		r.amu.Recall(memsys.BlockAddr(addr, 128))
		return r.mem.ReadWord(addr) == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
