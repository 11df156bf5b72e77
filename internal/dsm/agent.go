// Package dsm models a coherence-free disaggregated shared-memory node in
// the style of Soul/GCS-class systems: there is no directory and no cached
// data — every processor access is a one-sided remote read, write or
// atomic served by the home node's memory agent at RDMA-class latency.
//
// Reads and writes are pipelined (a NIC-style agent serves them
// concurrently); atomics serialize through a single function unit per
// node, which is what makes them atomic. AMO requests are accepted and
// executed exactly like memory-side atomics — their update-push flags are
// meaningless without caches and are ignored — so all five synchronization
// mechanisms run unmodified over the remote-access primitives.
package dsm

import (
	"fmt"

	"amosim/internal/core"
	"amosim/internal/memsys"
	"amosim/internal/metrics"
	"amosim/internal/network"
	"amosim/internal/sim"
)

// Params configures one node's memory agent.
type Params struct {
	Node int
	// RemoteCycles is the agent-side service latency of a remote access,
	// on top of network transit.
	RemoteCycles uint64
}

// Agent is one node's disaggregated-memory endpoint.
type Agent struct {
	eng sim.Engine
	net *network.Network
	mem *memsys.Memory
	p   Params

	queue sim.FIFO[network.Msg]
	busy  bool
	cur   network.Msg

	dispatchFn func()
	executeFn  func()

	stats metrics.DSMStats
}

// New creates a memory agent for node p.Node.
func New(eng sim.Engine, net *network.Network, mem *memsys.Memory, p Params) *Agent {
	a := &Agent{eng: eng, net: net, mem: mem, p: p}
	a.dispatchFn = a.dispatch
	a.executeFn = a.execute
	return a
}

// Stats returns the agent's counters.
func (a *Agent) Stats() metrics.DSMStats { return a.stats }

// Quiesced returns an error if the atomic unit still has queued or
// in-flight work at quiescence.
func (a *Agent) Quiesced() error {
	if a.busy || a.queue.Len() != 0 {
		return fmt.Errorf("dsm: node %d agent still busy at quiescence (%d queued)",
			a.p.Node, a.queue.Len())
	}
	return nil
}

// Handle accepts hub-routed remote accesses. Runs in event context.
func (a *Agent) Handle(m *network.Msg) {
	switch m.Kind {
	case network.KindUncachedLoad:
		a.stats.RemoteLoads++
		a.stats.OccupancyCycles += a.p.RemoteCycles
		a.net.SendAfter(sim.Time(a.p.RemoteCycles), &network.Msg{
			Kind:      network.KindUncachedLoadReply,
			Src:       network.Hub(a.p.Node),
			Dst:       m.Src,
			Addr:      m.Addr,
			Value:     a.mem.ReadWord(m.Addr),
			DataBytes: memsys.WordBytes,
			Txn:       m.Txn,
		})
	case network.KindUncachedStore:
		a.stats.RemoteStores++
		a.stats.OccupancyCycles += a.p.RemoteCycles
		a.mem.WriteWord(m.Addr, m.Value)
		a.net.SendAfter(sim.Time(a.p.RemoteCycles), &network.Msg{
			Kind: network.KindUncachedStoreAck,
			Src:  network.Hub(a.p.Node),
			Dst:  m.Src,
			Addr: m.Addr,
			Txn:  m.Txn,
		})
	case network.KindAMORequest, network.KindMAORequest:
		a.queue.Push(*m)
		a.dispatch()
	default:
		panic(fmt.Sprintf("dsm: unexpected message %v", m))
	}
}

// dispatch starts the head-of-queue atomic if the unit is idle.
func (a *Agent) dispatch() {
	if a.busy || a.queue.Len() == 0 {
		return
	}
	a.busy = true
	a.cur = a.queue.Pop()
	a.stats.OccupancyCycles += a.p.RemoteCycles
	a.eng.Schedule(sim.Time(a.p.RemoteCycles), a.executeFn)
}

// execute performs the atomic read-modify-write against home memory and
// replies with the previous value.
func (a *Agent) execute() {
	m := &a.cur
	a.stats.RemoteAtomics++
	old := a.mem.ReadWord(m.Addr)
	a.mem.WriteWord(m.Addr, core.Op(m.Op).Apply(old, m.Value, m.Aux))

	kind := network.KindAMOReply
	if m.Kind == network.KindMAORequest {
		kind = network.KindMAOReply
	}
	a.net.Send(&network.Msg{
		Kind:      kind,
		Src:       network.Hub(a.p.Node),
		Dst:       m.Src,
		Addr:      m.Addr,
		Value:     old,
		DataBytes: memsys.WordBytes,
		Txn:       m.Txn,
	})
	a.busy = false
	a.cur = network.Msg{}
	a.eng.Schedule(0, a.dispatchFn)
}
