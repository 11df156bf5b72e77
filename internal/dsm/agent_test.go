package dsm

import (
	"strings"
	"testing"

	"amosim/internal/core"
	"amosim/internal/memsys"
	"amosim/internal/network"
	"amosim/internal/sim"
	"amosim/internal/topology"
)

const remoteCycles = 50

// rig wires node 0's agent to a real network and memory, with a capture
// endpoint on CPU 2 (node 1) for the replies.
type rig struct {
	eng     sim.Engine
	net     *network.Network
	mem     *memsys.Memory
	agent   *Agent
	replies []network.Msg
	// arrived, if set, runs after the agent handles each request.
	arrived func()
}

func newRig(t *testing.T) *rig {
	t.Helper()
	eng := sim.NewSequential()
	topo, err := topology.NewFatTree(2, 8)
	if err != nil {
		t.Fatal(err)
	}
	net := network.New(eng, topo, network.Params{HopCycles: 100, BusCycles: 16, MinPacket: 32, HeaderSize: 16})
	mem := memsys.New(2, 128, 60)
	r := &rig{eng: eng, net: net, mem: mem}
	r.agent = New(eng, net, mem, Params{Node: 0, RemoteCycles: remoteCycles})
	net.RegisterHub(0, func(m *network.Msg) {
		r.agent.Handle(m)
		if r.arrived != nil {
			r.arrived()
		}
	})
	net.RegisterCPU(2, func(m *network.Msg) { r.replies = append(r.replies, *m) })
	return r
}

// msg is a request from CPU 2 to node 0's agent.
func (r *rig) msg(kind network.Kind, addr, value, txn uint64) *network.Msg {
	return &network.Msg{
		Kind:  kind,
		Src:   network.Endpoint{Node: 1, CPU: 2},
		Dst:   network.Hub(0),
		Addr:  addr,
		Value: value,
		Op:    int(core.OpFetchAdd),
		Txn:   txn,
	}
}

func (r *rig) run(t *testing.T) {
	t.Helper()
	if err := r.eng.Run(); err != nil {
		t.Fatalf("engine: %v", err)
	}
}

// TestAtomicsServedInArrivalOrderWhileQueueNeverDrains offers two
// fetch-adds per service time, so the atomic queue only grows until the
// producer stops. Each reply must carry its request's position in arrival
// order as the old value, and the replies must leave in that order.
func TestAtomicsServedInArrivalOrderWhileQueueNeverDrains(t *testing.T) {
	r := newRig(t)
	addr := r.mem.AllocWord(0)
	const n = 2000
	var sent uint64
	var produce func(any)
	produce = func(any) {
		for i := 0; i < 2 && sent < n; i++ {
			r.net.Send(r.msg(network.KindAMORequest, addr, 1, sent))
			sent++
		}
		if sent < n {
			r.eng.ScheduleCall(remoteCycles, produce, nil)
		}
	}
	arrivals, high := 0, 0
	r.arrived = func() {
		arrivals++
		if arrivals > 1 && r.agent.amu.Queued() == 0 {
			t.Fatalf("the atomic queue drained at arrival %d", arrivals)
		}
		high = max(high, r.agent.amu.Queued())
	}
	produce(nil)
	r.run(t)
	if high < n/2-1 {
		t.Fatalf("the queue peaked at %d, want about %d: the producer did not outrun the unit", high, n/2)
	}
	if len(r.replies) != n {
		t.Fatalf("%d replies, want %d", len(r.replies), n)
	}
	for i, m := range r.replies {
		if m.Kind != network.KindAMOReply || m.Txn != uint64(i) || m.Value != uint64(i) {
			t.Fatalf("reply %d = %v txn %d old %d, want an AMO reply with txn and old value %d", i, m.Kind, m.Txn, m.Value, i)
		}
	}
	if got := r.mem.ReadWord(addr); got != n {
		t.Fatalf("word = %d, want %d", got, n)
	}
	if st := r.agent.Stats(); st.RemoteAtomics != n || st.OccupancyCycles != n*remoteCycles {
		t.Fatalf("stats %+v, want %d atomics and %d occupancy cycles", st, n, n*remoteCycles)
	}
}

// TestQuiescedReportsQueuedAtomics: with one atomic in service and four
// waiting, Quiesced names the four; once they run, it is clean.
func TestQuiescedReportsQueuedAtomics(t *testing.T) {
	r := newRig(t)
	addr := r.mem.AllocWord(0)
	for i := uint64(0); i < 5; i++ {
		r.agent.Handle(r.msg(network.KindMAORequest, addr, 1, i))
	}
	err := r.agent.Quiesced()
	if err == nil || !strings.Contains(err.Error(), "(4 queued)") {
		t.Fatalf("Quiesced() = %v, want an error naming 4 queued", err)
	}
	r.run(t)
	if err := r.agent.Quiesced(); err != nil {
		t.Fatalf("Quiesced() after the run = %v", err)
	}
	if len(r.replies) != 5 || r.replies[4].Kind != network.KindMAOReply || r.replies[4].Value != 4 {
		t.Fatalf("replies %v, want five MAO replies ending with old value 4", r.replies)
	}
}

// TestDSMAgentSteadyStateZeroAlloc pins the agent at zero allocations per
// request once warm: pipelined remote loads and stores, and a burst of
// atomics that queues behind the function unit.
func TestDSMAgentSteadyStateZeroAlloc(t *testing.T) {
	r := newRig(t)
	addr := r.mem.AllocWord(0)
	r.replies = make([]network.Msg, 0, 48)
	burst := func() {
		r.replies = r.replies[:0]
		for i := uint64(0); i < 8; i++ {
			r.net.Send(r.msg(network.KindUncachedStore, addr, i, i))
			r.net.Send(r.msg(network.KindUncachedLoad, addr, 0, i))
		}
		for i := uint64(0); i < 32; i++ {
			r.net.Send(r.msg(network.KindAMORequest, addr, 1, i))
		}
		r.run(t)
	}
	burst() // grow the atomic queue and warm the network pools
	if allocs := testing.AllocsPerRun(100, burst); allocs != 0 {
		t.Fatalf("dsm agent steady state allocates %.1f/burst, want 0", allocs)
	}
	// AllocsPerRun makes one warm-up call of its own: 102 bursts in all.
	if st := r.agent.Stats(); st.RemoteAtomics != 102*32 || st.RemoteLoads != 102*8 || st.RemoteStores != 102*8 {
		t.Fatalf("stats %+v, want %d atomics and %d loads and stores", st, 102*32, 102*8)
	}
	if len(r.replies) != 48 {
		t.Fatalf("%d replies per burst, want 48", len(r.replies))
	}
}
