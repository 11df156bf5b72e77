package directory

import (
	"strings"
	"testing"

	"amosim/internal/memsys"
	"amosim/internal/network"
	"amosim/internal/sim"
	"amosim/internal/topology"
)

// fakeCPU is a scripted cache-side endpoint: it acks invalidations and
// answers interventions with canned data, recording everything it sees.
type fakeCPU struct {
	id    int
	net   *network.Network
	seen  []network.Msg
	dirty []uint64 // data to hand over on intervention; nil => stale ack
	// onRecv, when set, observes each delivered message.
	onRecv func(m *network.Msg)
}

func (f *fakeCPU) handle(in *network.Msg) {
	m := *in
	if m.Data != nil {
		// Data is valid only until the handler returns; copy to retain.
		m.Data = append([]uint64(nil), m.Data...)
	}
	f.seen = append(f.seen, m)
	if f.onRecv != nil {
		f.onRecv(&m)
	}
	switch m.Kind {
	case network.KindInvalidate:
		f.net.Send(&network.Msg{
			Kind: network.KindInvalidateAck,
			Src:  network.Endpoint{Node: f.id / 2, CPU: f.id},
			Dst:  m.Src, Addr: m.Addr,
		})
	case network.KindIntervention:
		reply := network.Msg{
			Kind: network.KindInterventionAck,
			Src:  network.Endpoint{Node: f.id / 2, CPU: f.id},
			Dst:  m.Src, Addr: m.Addr,
		}
		if f.dirty != nil {
			reply.Data = f.dirty
			reply.DataBytes = len(f.dirty) * 8
		} else {
			reply.Flags = IvnAckStale
		}
		f.net.Send(&reply)
	}
}

func (f *fakeCPU) countKind(k network.Kind) int {
	n := 0
	for _, m := range f.seen {
		if m.Kind == k {
			n++
		}
	}
	return n
}

type rig struct {
	eng  sim.Engine
	net  *network.Network
	mem  *memsys.Memory
	ctrl *Controller
	cpus []*fakeCPU
}

func newRig(t *testing.T, ncpus int) *rig {
	t.Helper()
	return newRigWith(t, ncpus, func(*Params) {})
}

// newRigWith builds a rig whose controller parameters are adjusted by set.
func newRigWith(t *testing.T, ncpus int, set func(*Params)) *rig {
	t.Helper()
	eng := sim.NewSequential()
	topo, err := topology.NewFatTree(4, 8)
	if err != nil {
		t.Fatal(err)
	}
	net := network.New(eng, topo, network.Params{HopCycles: 100, BusCycles: 16, MinPacket: 32, HeaderSize: 16})
	mem := memsys.New(4, 128, 60)
	p := Params{Node: 0, ProcsPerNode: 2, BlockBytes: 128, DirCycles: 8, DRAMCycles: 60, InjectCycles: 4}
	set(&p)
	ctrl := New(eng, net, mem, p)
	net.RegisterHub(0, ctrl.Handle)
	r := &rig{eng: eng, net: net, mem: mem, ctrl: ctrl}
	for i := 0; i < ncpus; i++ {
		f := &fakeCPU{id: i, net: net}
		net.RegisterCPU(i, f.handle)
		r.cpus = append(r.cpus, f)
	}
	return r
}

func (r *rig) run(t *testing.T) {
	t.Helper()
	if err := r.eng.Run(); err != nil {
		t.Fatalf("engine: %v", err)
	}
}

func (r *rig) request(cpu int, kind network.Kind, addr uint64) {
	r.net.Send(&network.Msg{
		Kind: kind,
		Src:  network.Endpoint{Node: cpu / 2, CPU: cpu},
		Dst:  network.Hub(0),
		Addr: addr,
	})
}

func words(n int, v uint64) []uint64 {
	w := make([]uint64, n)
	for i := range w {
		w[i] = v
	}
	return w
}

func TestGetSharedFromMemory(t *testing.T) {
	r := newRig(t, 2)
	addr := r.mem.AllocWord(0)
	r.mem.WriteWord(addr, 99)
	r.request(1, network.KindGetShared, addr)
	r.run(t)
	if n := r.cpus[1].countKind(network.KindDataShared); n != 1 {
		t.Fatalf("DataShared count = %d, want 1", n)
	}
	data := r.cpus[1].seen[0].Data
	if data[0] != 99 {
		t.Fatalf("data word = %d, want 99", data[0])
	}
	if got := r.ctrl.Sharers(addr); len(got) != 1 || got[0] != 1 {
		t.Fatalf("sharers = %v, want [1]", got)
	}
}

func TestGetExclusiveInvalidatesSharers(t *testing.T) {
	r := newRig(t, 4)
	addr := r.mem.AllocWord(0)
	r.request(0, network.KindGetShared, addr)
	r.request(1, network.KindGetShared, addr)
	r.request(2, network.KindGetShared, addr)
	r.run(t)
	r.request(3, network.KindGetExclusive, addr)
	r.run(t)
	for i := 0; i < 3; i++ {
		if n := r.cpus[i].countKind(network.KindInvalidate); n != 1 {
			t.Fatalf("cpu %d invalidations = %d, want 1", i, n)
		}
	}
	if n := r.cpus[3].countKind(network.KindDataExclusive); n != 1 {
		t.Fatalf("DataExclusive count = %d, want 1", n)
	}
	if invs := r.ctrl.Stats().Invalidations; invs != 3 {
		t.Fatalf("invalidation counter = %d, want 3", invs)
	}
}

func TestUpgradeFromSharerGetsAckOnly(t *testing.T) {
	r := newRig(t, 2)
	addr := r.mem.AllocWord(0)
	r.request(0, network.KindGetShared, addr)
	r.request(1, network.KindGetShared, addr)
	r.run(t)
	r.request(1, network.KindUpgrade, addr)
	r.run(t)
	if n := r.cpus[1].countKind(network.KindAckExclusive); n != 1 {
		t.Fatalf("AckExclusive = %d, want 1", n)
	}
	if n := r.cpus[1].countKind(network.KindDataExclusive); n != 0 {
		t.Fatalf("DataExclusive = %d, want 0 (upgrade carries no data)", n)
	}
	if n := r.cpus[0].countKind(network.KindInvalidate); n != 1 {
		t.Fatalf("other sharer invalidations = %d, want 1", n)
	}
}

func TestUpgradeFromNonSharerBecomesGetX(t *testing.T) {
	r := newRig(t, 2)
	addr := r.mem.AllocWord(0)
	// CPU 1 upgrades without ever having been a sharer (models the
	// invalidated-while-in-flight race).
	r.request(1, network.KindUpgrade, addr)
	r.run(t)
	if n := r.cpus[1].countKind(network.KindDataExclusive); n != 1 {
		t.Fatalf("DataExclusive = %d, want 1 (upgrade must degrade to GETX)", n)
	}
}

func TestInterventionDowngradeWritesMemory(t *testing.T) {
	r := newRig(t, 2)
	addr := r.mem.AllocWord(0)
	r.request(0, network.KindGetExclusive, addr)
	r.run(t)
	r.cpus[0].dirty = words(16, 1234) // CPU 0's modified block contents
	r.request(1, network.KindGetShared, addr)
	r.run(t)
	if n := r.cpus[0].countKind(network.KindIntervention); n != 1 {
		t.Fatalf("interventions to owner = %d, want 1", n)
	}
	if got := r.mem.ReadWord(addr); got != 1234 {
		t.Fatalf("memory = %d, want 1234 (downgrade must write back)", got)
	}
	// Requester's reply must carry the dirty value, not stale memory.
	var reply *network.Msg
	for i := range r.cpus[1].seen {
		if r.cpus[1].seen[i].Kind == network.KindDataShared {
			reply = &r.cpus[1].seen[i]
		}
	}
	if reply == nil || reply.Data[0] != 1234 {
		t.Fatalf("requester did not receive dirty data: %v", reply)
	}
}

func TestWritebackRace(t *testing.T) {
	r := newRig(t, 2)
	addr := r.mem.AllocWord(0)
	r.request(0, network.KindGetExclusive, addr)
	r.run(t)
	// CPU 0 writes back (eviction); its fake handler will answer any
	// subsequent intervention with a stale ack.
	r.net.Send(&network.Msg{
		Kind: network.KindWriteback,
		Src:  network.Endpoint{Node: 0, CPU: 0},
		Dst:  network.Hub(0),
		Addr: addr,
		Data: words(16, 777), DataBytes: 128,
	})
	r.request(1, network.KindGetShared, addr)
	r.run(t)
	if got := r.mem.ReadWord(addr); got != 777 {
		t.Fatalf("memory = %d, want 777 after writeback", got)
	}
	// CPU 1 must still get data (from memory, since WB was processed).
	if n := r.cpus[1].countKind(network.KindDataShared); n != 1 {
		t.Fatalf("DataShared = %d, want 1", n)
	}
}

func TestStaleWritebackDropped(t *testing.T) {
	r := newRig(t, 2)
	addr := r.mem.AllocWord(0)
	r.mem.WriteWord(addr, 5)
	// A writeback from a CPU that is not the registered owner is stale.
	r.net.Send(&network.Msg{
		Kind: network.KindWriteback,
		Src:  network.Endpoint{Node: 0, CPU: 1},
		Dst:  network.Hub(0),
		Addr: addr,
		Data: words(16, 666), DataBytes: 128,
	})
	r.run(t)
	if got := r.mem.ReadWord(addr); got != 5 {
		t.Fatalf("memory = %d, want 5 (stale WB must be dropped)", got)
	}
}

// fakeAMU implements AMUPort for recall testing.
type fakeAMU struct {
	recalled []uint64
	flush    func(block uint64)
}

func (f *fakeAMU) Recall(block uint64) {
	f.recalled = append(f.recalled, block)
	if f.flush != nil {
		f.flush(block)
	}
}

func TestFineGetRegistersAMUWord(t *testing.T) {
	r := newRig(t, 2)
	addr := r.mem.AllocWord(0)
	r.mem.WriteWord(addr, 42)
	var got uint64
	r.ctrl.FineGet(addr, func(v uint64) { got = v })
	r.run(t)
	if got != 42 {
		t.Fatalf("FineGet = %d, want 42", got)
	}
	if !r.ctrl.AMUHolds(addr) {
		t.Fatal("AMU not registered as word sharer")
	}
}

func TestFineGetInterveningOnExclusiveOwner(t *testing.T) {
	r := newRig(t, 2)
	addr := r.mem.AllocWord(0)
	r.request(0, network.KindGetExclusive, addr)
	r.run(t)
	r.cpus[0].dirty = words(16, 31)
	var got uint64
	r.ctrl.FineGet(addr, func(v uint64) { got = v })
	r.run(t)
	if got != 31 {
		t.Fatalf("FineGet = %d, want 31 (dirty owner value)", got)
	}
	if n := r.cpus[0].countKind(network.KindIntervention); n != 1 {
		t.Fatalf("interventions = %d, want 1", n)
	}
}

func TestFinePutUpdatesSharersAndMemory(t *testing.T) {
	r := newRig(t, 3)
	addr := r.mem.AllocWord(0)
	r.request(1, network.KindGetShared, addr)
	r.request(2, network.KindGetShared, addr)
	r.ctrl.FineGet(addr, func(uint64) {})
	r.run(t)
	done := false
	r.ctrl.FinePut(addr, func() (uint64, bool) { return 88, true }, func() { done = true })
	r.run(t)
	if !done {
		t.Fatal("FinePut did not complete")
	}
	if got := r.mem.ReadWord(addr); got != 88 {
		t.Fatalf("memory = %d, want 88", got)
	}
	for _, cpu := range []int{1, 2} {
		if n := r.cpus[cpu].countKind(network.KindWordUpdate); n != 1 {
			t.Fatalf("cpu %d word updates = %d, want 1", cpu, n)
		}
		if n := r.cpus[cpu].countKind(network.KindInvalidate); n != 0 {
			t.Fatalf("cpu %d invalidations = %d, want 0 (updates, not invalidates)", cpu, n)
		}
	}
	if upd := r.ctrl.Stats().WordUpdates; upd != 2 {
		t.Fatalf("update counter = %d, want 2", upd)
	}
}

func TestFinePutAfterRecallIsNoOp(t *testing.T) {
	r := newRig(t, 2)
	addr := r.mem.AllocWord(0)
	r.mem.WriteWord(addr, 7)
	amu := &fakeAMU{}
	r.ctrl.SetAMU(amu)
	r.ctrl.FineGet(addr, func(uint64) {})
	r.request(1, network.KindGetShared, addr)
	r.run(t)
	// A GETX triggers the recall, clearing the AMU's word registration.
	r.request(1, network.KindGetExclusive, addr)
	r.run(t)
	if len(amu.recalled) != 1 {
		t.Fatalf("recalls = %d, want 1", len(amu.recalled))
	}
	if r.ctrl.AMUHolds(addr) {
		t.Fatal("AMU still registered after recall")
	}
	// A put racing behind the recall must do nothing.
	r.ctrl.FinePut(addr, func() (uint64, bool) { return 0, false }, func() {})
	r.run(t)
	if n := r.cpus[1].countKind(network.KindWordUpdate); n != 0 {
		t.Fatalf("word updates after recall = %d, want 0", n)
	}
}

func TestFineEvictPushesUpdates(t *testing.T) {
	r := newRig(t, 2)
	addr := r.mem.AllocWord(0)
	r.ctrl.FineGet(addr, func(uint64) {})
	r.request(1, network.KindGetShared, addr)
	r.run(t)
	r.ctrl.FineEvict(addr, 55)
	r.run(t)
	if got := r.mem.ReadWord(addr); got != 55 {
		t.Fatalf("memory = %d, want 55", got)
	}
	if n := r.cpus[1].countKind(network.KindWordUpdate); n != 1 {
		t.Fatalf("word updates = %d, want 1", n)
	}
	if r.ctrl.AMUHolds(addr) {
		t.Fatal("AMU still registered after eviction")
	}
}

func TestBlockedRequestsQueueInOrder(t *testing.T) {
	r := newRig(t, 4)
	addr := r.mem.AllocWord(0)
	// Three exclusive requests back to back; each later one must intervene
	// on the previous owner, in order.
	r.request(0, network.KindGetExclusive, addr)
	r.request(1, network.KindGetExclusive, addr)
	r.request(2, network.KindGetExclusive, addr)
	r.run(t)
	// Final state: CPU 2 owns. CPUs 0 and 1 each saw one intervention.
	if n := r.cpus[0].countKind(network.KindIntervention); n != 1 {
		t.Fatalf("cpu0 interventions = %d, want 1", n)
	}
	if n := r.cpus[1].countKind(network.KindIntervention); n != 1 {
		t.Fatalf("cpu1 interventions = %d, want 1", n)
	}
	if n := r.cpus[2].countKind(network.KindIntervention); n != 0 {
		t.Fatalf("cpu2 interventions = %d, want 0", n)
	}
	if n := r.cpus[2].countKind(network.KindDataExclusive); n != 1 {
		t.Fatalf("cpu2 DataExclusive = %d, want 1", n)
	}
}

func TestOwnerReRequestAfterWritebackRace(t *testing.T) {
	r := newRig(t, 2)
	addr := r.mem.AllocWord(0)
	r.request(0, network.KindGetExclusive, addr)
	r.run(t)
	// Owner re-requests exclusively (e.g. it wrote back and re-misses
	// before the WB arrives); the directory must not self-intervene.
	r.request(0, network.KindGetExclusive, addr)
	r.run(t)
	if n := r.cpus[0].countKind(network.KindIntervention); n != 0 {
		t.Fatalf("self-intervention sent (%d)", n)
	}
	if n := r.cpus[0].countKind(network.KindDataExclusive); n != 2 {
		t.Fatalf("DataExclusive = %d, want 2", n)
	}
}

func TestNewRejectsZeroProcsPerNode(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(sim.NewSequential(), nil, nil, Params{})
}

// TestStaleDowngradeAckAddsNoPhantomSharer: when a GETS intervention is
// answered with a stale ack, the former owner holds no copy and must not
// be recorded as a sharer. The phantom entry (found by the modelcheck
// package) would make a later upgrade from that CPU look like a live
// sharer hit, granting data-less ownership of a line it no longer holds.
func TestStaleDowngradeAckAddsNoPhantomSharer(t *testing.T) {
	r := newRig(t, 4)
	addr := r.mem.AllocWord(0)
	r.mem.WriteWord(addr, 11)
	r.request(1, network.KindGetExclusive, addr)
	r.run(t)
	// CPU 2's GETS finds CPU 1 registered as owner, but fake CPU 1 answers
	// the downgrade intervention with a stale ack (its copy is gone).
	r.request(2, network.KindGetShared, addr)
	r.run(t)
	if got := r.ctrl.Sharers(addr); len(got) != 1 || got[0] != 2 {
		t.Fatalf("sharers after stale downgrade ack = %v, want [2] (no phantom)", got)
	}
	if got := r.mem.ReadWord(addr); got != 11 {
		t.Fatalf("memory = %d, want 11 (stale ack carries no data)", got)
	}
}

// TestTwoAMUWordsInOneBlock registers two words of one block with the AMU,
// highest first: the snapshot lists them in ascending order, AMUHolds
// answers per word, and dropping one word leaves the other registered.
func TestTwoAMUWordsInOneBlock(t *testing.T) {
	r := newRig(t, 2)
	base := r.mem.Alloc(0, 128, 128)
	lo, hi := base+8, base+120 // words 1 and 15
	r.ctrl.FineGet(hi, func(uint64) {})
	r.ctrl.FineGet(lo, func(uint64) {})
	r.run(t)
	if got := r.ctrl.SnapshotOf(base).AMUWords; len(got) != 2 || got[0] != lo || got[1] != hi {
		t.Fatalf("AMUWords = %#x, want [%#x %#x]", got, lo, hi)
	}
	if !r.ctrl.AMUHolds(lo) || !r.ctrl.AMUHolds(hi) || r.ctrl.AMUHolds(base) {
		t.Fatalf("AMUHolds(base, lo, hi) = %v %v %v, want false true true",
			r.ctrl.AMUHolds(base), r.ctrl.AMUHolds(lo), r.ctrl.AMUHolds(hi))
	}
	r.ctrl.FineDrop(hi)
	if !r.ctrl.AMUHolds(lo) || r.ctrl.AMUHolds(hi) {
		t.Fatal("FineDrop cleared a word other than its own")
	}
	if got := r.ctrl.SnapshotOf(base).AMUWords; len(got) != 1 || got[0] != lo {
		t.Fatalf("AMUWords after FineDrop = %#x, want [%#x]", got, lo)
	}
}

// TestEntriesSurviveSlabGrowth holds a block's record while blocks far
// past it are touched: the record must stay where transactions left it.
func TestEntriesSurviveSlabGrowth(t *testing.T) {
	r := newRig(t, 2)
	addr := r.mem.AllocWord(0)
	r.request(1, network.KindGetShared, addr)
	r.run(t)
	e := r.ctrl.entryOf(addr)
	for i := 0; i < 100*chunkEntries; i++ {
		r.ctrl.FineGet(r.mem.AllocWord(0), func(uint64) {})
	}
	r.run(t)
	if r.ctrl.entryOf(addr) != e {
		t.Fatal("a directory record moved when the slab grew")
	}
	if got := r.ctrl.Sharers(addr); len(got) != 1 || got[0] != 1 {
		t.Fatalf("sharers = %v, want [1]", got)
	}
}

func TestNewRejectsBadBlockSize(t *testing.T) {
	r := newRig(t, 0)
	for _, bb := range []int{0, 24, memsys.MaxBlockBytes * 2} {
		func() {
			defer func() {
				if msg, _ := recover().(string); !strings.Contains(msg, "bad block size") {
					t.Errorf("New with BlockBytes %d: panic %q, want a bad block size", bb, msg)
				}
			}()
			New(r.eng, r.net, r.mem, Params{ProcsPerNode: 2, BlockBytes: bb})
		}()
	}
}

func TestOffNodeBlockPanics(t *testing.T) {
	r := newRig(t, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("a block homed on node 1 reached node 0's directory without a panic")
		}
	}()
	r.ctrl.AMUHolds(r.mem.AllocWord(1))
}
