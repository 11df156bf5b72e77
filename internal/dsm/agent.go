// Package dsm models a coherence-free disaggregated shared-memory node in
// the style of Soul/GCS-class systems: there is no directory and no cached
// data — every processor access is a one-sided remote read, write or
// atomic served by the home node's memory agent at RDMA-class latency.
//
// Reads and writes are pipelined (a NIC-style agent serves them
// concurrently); atomics serialize through a single function unit per
// node, which is what makes them atomic. That unit is a core.AMU built
// without a directory or an operand cache, whose one stage is the remote
// service latency: it serves AMO and MAO requests alike on the
// memory-side path — their update-push flags are meaningless without
// caches and are ignored — so all five synchronization mechanisms run
// unmodified over the remote-access primitives.
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
	net *network.Network
	mem *memsys.Memory
	p   Params
	amu *core.AMU

	// stats counts the loads and stores; Stats adds the unit's atomics.
	stats metrics.DSMStats
}

// New creates a memory agent for node p.Node.
func New(eng sim.Engine, net *network.Network, mem *memsys.Memory, p Params) *Agent {
	return &Agent{net: net, mem: mem, p: p, amu: core.New(eng, net, mem, nil, core.Params{
		Node:       p.Node,
		DRAMCycles: p.RemoteCycles,
		// Without a directory the unit holds no coherent word, so no
		// recall ever names a block.
		BlockBytes: memsys.WordBytes,
	})}
}

// Stats returns the agent's counters, reading the atomics and their share
// of the occupancy from the atomic unit.
func (a *Agent) Stats() metrics.DSMStats {
	s, u := a.stats, a.amu.Stats()
	s.RemoteAtomics = u.Ops
	s.OccupancyCycles += u.OccupancyCycles
	return s
}

// Quiesced returns an error if the atomic unit still has queued or
// in-flight work at quiescence.
func (a *Agent) Quiesced() error { return a.amu.Quiesced() }

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
		a.amu.Handle(m)
	default:
		panic(fmt.Sprintf("dsm: unexpected message %v", m))
	}
}
