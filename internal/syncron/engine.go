// Package syncron models a SynCron-style near-data synchronization
// hierarchy (Giannoula et al., HPCA 2021) on top of the simulator's
// directory-based node: every node carries a set of per-memory-partition
// synchronization engines instead of a single AMU.
//
// Each engine partition is a core.AMU — a queue, a function unit and an
// operand cache that here plays the partition's small bounded sync table;
// requests partition by word address. A request that hits its partition's
// table completes at FU speed; a miss allocates an entry, fetching the
// operand coherently (AMOs, via the directory's fine-grained get) or from
// memory (MAOs). When the table is full the LRU entry spills back to memory
// — SynCron's overflow path — which the unit charges as SpillCycles (one
// extra memory write-back) on the fill. Inter-node coordination is
// hierarchical: a CPU hands its request to the local node's engine first,
// which inspects it and forwards remote-homed requests to the home
// partition; the home engine replies directly to the requesting CPU.
//
// Processor loads and stores remain fully coherent through the unchanged
// MSI directory, so the conventional mechanisms (LL/SC, processor atomics,
// active messages) behave exactly as on the AMO backend; only the
// memory-side synchronization path differs.
package syncron

import (
	"fmt"

	"amosim/internal/core"
	"amosim/internal/directory"
	"amosim/internal/memsys"
	"amosim/internal/metrics"
	"amosim/internal/network"
	"amosim/internal/sim"
)

// Params configures one node's engine set.
type Params struct {
	Node int
	// Partitions is the number of independent engine partitions (power of
	// two); requests partition by word address.
	Partitions int
	// TableEntries bounds each partition's sync table (power of two).
	TableEntries int
	// OpCycles is the FU latency for a request whose operand is resident.
	OpCycles uint64
	// QueueCycles is the queue/dispatch charge per request.
	QueueCycles uint64
	// DRAMCycles is the memory fill (and overflow spill) latency.
	DRAMCycles uint64
	// InspectCycles is the local engine's charge for inspecting and
	// forwarding a remote-homed request.
	InspectCycles uint64
	// BlockBytes is the coherence block size (for recalls).
	BlockBytes int
}

// Engine is one node's set of synchronization-engine partitions. It
// implements directory.AMUPort so the directory can recall engine-held
// words, and the machine's hub routes AMO/MAO/uncached traffic to Handle.
type Engine struct {
	net   *network.Network
	p     Params
	mask  uint64
	parts []*core.AMU

	// Engine-level counters: Forwards, Recalls and the inspect share of
	// OccupancyCycles. Stats adds the partitions' counters.
	stats metrics.SyncStats
}

// New creates a node's engine set bound to its directory controller and
// memory. The caller installs it as the directory's recall port.
func New(eng sim.Engine, net *network.Network, mem *memsys.Memory, dir *directory.Controller, p Params) *Engine {
	if p.Partitions <= 0 || p.Partitions&(p.Partitions-1) != 0 {
		panic(fmt.Sprintf("syncron: Partitions must be a positive power of two, got %d", p.Partitions))
	}
	if p.TableEntries <= 0 || p.TableEntries&(p.TableEntries-1) != 0 {
		panic(fmt.Sprintf("syncron: TableEntries must be a positive power of two, got %d", p.TableEntries))
	}
	e := &Engine{net: net, p: p, mask: uint64(p.Partitions - 1)}
	for i := 0; i < p.Partitions; i++ {
		e.parts = append(e.parts, core.New(eng, net, mem, dir, core.Params{
			Node:        p.Node,
			CacheWords:  p.TableEntries,
			OpCycles:    p.OpCycles,
			QueueCycles: p.QueueCycles,
			DRAMCycles:  p.DRAMCycles,
			SpillCycles: p.DRAMCycles,
			BlockBytes:  p.BlockBytes,
		}))
	}
	return e
}

// Stats returns the node's engine counters, summed over partitions.
func (e *Engine) Stats() metrics.SyncStats {
	s := e.stats
	for _, pt := range e.parts {
		u := pt.Stats()
		s.Ops += u.Ops
		s.TableHits += u.CacheHits
		s.FinePuts += u.FinePuts
		s.OccupancyCycles += u.OccupancyCycles
		s.Overflows += pt.Overflows()
	}
	return s
}

// partitionOf selects the engine partition owning addr.
func (e *Engine) partitionOf(addr uint64) *core.AMU {
	return e.parts[(addr>>3)&e.mask]
}

// Handle accepts hub-routed traffic: AMO/MAO requests (executing home-homed
// ones, forwarding the rest to their home node's engine) and uncached
// accesses to this node's memory. Runs in event context.
func (e *Engine) Handle(m *network.Msg) {
	if m.Kind == network.KindAMORequest || m.Kind == network.KindMAORequest {
		if home := memsys.HomeNode(m.Addr); home != e.p.Node {
			// Hierarchical coordination: the local engine inspects the
			// request and relays it to the home partition; the home engine
			// replies straight to the requesting CPU (m.Src is preserved).
			// Readdressing the delivered record in place is safe: it is
			// this handler's until it returns, and SendAfter copies it.
			e.stats.Forwards++
			e.stats.OccupancyCycles += e.p.InspectCycles
			m.Dst = network.Hub(home)
			e.net.SendAfter(sim.Time(e.p.InspectCycles), m)
			return
		}
	}
	e.partitionOf(m.Addr).Handle(m)
}

// Recall implements directory.AMUPort: synchronously flush every
// engine-held word of block into memory and invalidate those entries.
func (e *Engine) Recall(block uint64) {
	e.stats.Recalls++
	for _, pt := range e.parts {
		pt.FlushBlock(block)
	}
}

// Peek returns the engine-held value of addr without touching LRU state.
func (e *Engine) Peek(addr uint64) (uint64, bool) {
	return e.partitionOf(addr).Peek(addr)
}

// Quiesced returns an error if any partition still has queued or in-flight
// work — at quiescence a busy engine means a request leaked.
func (e *Engine) Quiesced() error {
	for i, pt := range e.parts {
		if err := pt.Quiesced(); err != nil {
			return fmt.Errorf("syncron: partition %d: %w", i, err)
		}
	}
	return nil
}
