// Package metrics is the simulator's unified observability layer: the
// named counters and cycle-attribution accumulators of every component
// (CPU, cache, directory controller, AMU and its operand cache, network,
// memory), per node and per CPU.
//
// Components accumulate into plain uint64 fields on their own structs and
// report them through Stats methods, so steady-state simulation pays
// nothing for observability. Machine.Metrics() reads those methods into
// an immutable Snapshot — nested named structs, JSON-marshalable with a
// deterministic byte encoding (struct fields marshal in declaration order
// and encoding/json sorts map keys). Snapshot.Diff(prev) subtracts two
// snapshots of the same machine to form a measurement window; the
// experiment harness derives every BarrierResult/LockResult from such
// diffs.
//
// Cycle attribution. Each CPU splits its lifetime into three disjoint
// buckets — Compute (issue/hit/handler latencies and Think), MemoryStall
// (blocked on a cache-miss, uncached, MAO/AMO or active-message reply) and
// SpinIdle (parked between spin re-checks or poll gaps) — that conserve
// exactly: Compute + MemoryStall + SpinIdle == Total at every snapshot
// instant, and therefore over every diff. CheckConservation verifies the
// invariant. NetworkStats.TransitCycles and the directory/AMU
// OccupancyCycles are parallel utilization gauges attributing *where* the
// stall cycles are spent; they overlap the CPU buckets (a message in
// transit overlaps its sender's stall) and are reported alongside, not
// summed into, the conserving breakdown.
package metrics

import "fmt"

// CPUStats are a CPU's cumulative event counters.
type CPUStats struct {
	SCFailures  uint64 // failed store-conditionals
	AmsgNacks   uint64 // active-message NACKs received
	AmsgRetries uint64 // active-message retransmissions sent
	AmsgServed  uint64 // active-message handlers served
}

// CacheStats are one cache's cumulative hit/miss/eviction counters.
type CacheStats struct {
	Hits      uint64
	Misses    uint64
	Evictions uint64
}

// DirectoryStats are one directory controller's cumulative counters.
// OccupancyCycles is a utilization gauge: directory pipeline and DRAM
// cycles charged while serving protocol requests (overlapping charges from
// concurrent transactions accumulate independently).
type DirectoryStats struct {
	Interventions   uint64
	Invalidations   uint64
	WordUpdates     uint64
	OccupancyCycles uint64
}

// AMUStats are one active memory unit's cumulative counters.
// OccupancyCycles gauges queue, operation and DRAM-fill cycles charged
// while executing AMOs.
type AMUStats struct {
	Ops             uint64
	CacheHits       uint64
	FinePuts        uint64
	Recalls         uint64
	OccupancyCycles uint64
}

// SyncStats are one SynCron-style node's cumulative synchronization-engine
// counters, summed across the node's partitions. OccupancyCycles gauges
// queue, operation and memory-fill cycles charged while executing requests.
type SyncStats struct {
	Ops             uint64 // AMO/MAO operations executed by the node's engines
	TableHits       uint64 // operations that hit a sync-table entry
	Overflows       uint64 // table-full spills of an LRU entry back to memory
	Forwards        uint64 // remote-homed requests forwarded by the local engine
	FinePuts        uint64 // delayed word-update pushes handed to the directory
	Recalls         uint64 // directory recalls of engine-held words
	OccupancyCycles uint64
}

// DSMStats are one disaggregated-memory agent's cumulative counters.
// OccupancyCycles gauges the remote-access service cycles charged at the
// agent (concurrent accesses accumulate independently).
type DSMStats struct {
	RemoteLoads     uint64
	RemoteStores    uint64
	RemoteAtomics   uint64
	OccupancyCycles uint64
}

// MemoryStats are the machine-wide backing-store access counters.
type MemoryStats struct {
	Reads  uint64
	Writes uint64
}

// NetworkStats are the interconnect's cumulative traffic counters.
// TransitCycles gauges the summed point-to-point latency of every
// network-crossing message (messages in flight concurrently accumulate
// independently, so this is a utilization gauge, not wall-clock time).
type NetworkStats struct {
	Messages      uint64 // messages that crossed the network
	LocalMessages uint64 // intra-node messages (no network traversal)
	Bytes         uint64 // header+payload bytes of network messages
	ByteHops      uint64 // bytes × topology hops
	Hops          uint64 // topology hops summed over network messages
	TransitCycles uint64
	// MessagesByKind maps message-kind mnemonics ("GETS", "AMO", ...) to
	// network-crossing message counts; kinds with a zero count are omitted.
	MessagesByKind map[string]uint64
}

// CycleBreakdown is one CPU's conserving cycle attribution:
// Compute + MemoryStall + SpinIdle == Total at every snapshot instant.
type CycleBreakdown struct {
	Compute     uint64 // issue, hit, atomic-op, handler latencies, Think
	MemoryStall uint64 // blocked awaiting a memory-system or message reply
	SpinIdle    uint64 // parked between spin re-checks / poll gaps
	Total       uint64 // cycles the CPU's program has been live
}

// CPUMetrics is the per-CPU slice of a Snapshot.
type CPUMetrics struct {
	ID       int
	Node     int
	Counters CPUStats
	Cache    CacheStats
	Cycles   CycleBreakdown
}

// NodeMetrics is the per-node slice of a Snapshot: the directory
// controller and active memory unit that share the node's DRAM. The Sync
// and DSM sections are present only on machines built with the matching
// backend (omitted from JSON otherwise, so BackendAMO snapshots are
// byte-identical to their pre-backend form).
type NodeMetrics struct {
	Node      int
	Directory DirectoryStats
	AMU       AMUStats
	Sync      *SyncStats `json:",omitempty"`
	DSM       *DSMStats  `json:",omitempty"`
}

// KernelStats gauges the event kernel and the host allocator behind it.
// EventsExecuted is deterministic (it counts dispatched simulation
// events); the Host-prefixed fields read the Go runtime's allocator and
// vary between hosts and runs — they exist to track the hot path's
// allocation behaviour, never to feed experiment results. The section
// is opt-in (Machine.EnableKernelMetrics); machines that do not enable it
// produce snapshots without a Kernel section, so default JSON outputs are
// unchanged.
type KernelStats struct {
	// EventsExecuted counts events the simulation kernel has dispatched.
	EventsExecuted uint64
	// HostMallocs and HostAllocBytes are cumulative heap allocation
	// counters of the host Go runtime (runtime.MemStats Mallocs /
	// TotalAlloc). Diffing two snapshots bounds the allocations the
	// window performed. Nondeterministic across hosts and runs.
	HostMallocs    uint64
	HostAllocBytes uint64
	// ShardEvents is the per-shard dispatch count when the machine runs the
	// parallel kernel; absent (nil) on the sequential kernel.
	ShardEvents []uint64 `json:",omitempty"`
}

// Snapshot is an immutable point-in-time view of every counter in the
// machine. It is safe to retain, marshal, and diff; two snapshots of
// identical runs marshal to byte-identical JSON (the opt-in Kernel
// section excepted — its Host fields read the host allocator).
type Snapshot struct {
	Cycle   uint64 // simulated time the snapshot was taken
	CPUs    []CPUMetrics
	Nodes   []NodeMetrics
	Memory  MemoryStats
	Network NetworkStats
	// Kernel is present only on machines that called
	// EnableKernelMetrics; omitted from JSON otherwise so golden outputs
	// are unaffected.
	Kernel *KernelStats `json:",omitempty"`
}

// Attribution aggregates a Snapshot's cycle accounting across the machine.
// The first four fields conserve (Compute+MemoryStall+SpinIdle ==
// TotalCPUCycles); the occupancy gauges decompose where stall cycles are
// spent and may overlap.
type Attribution struct {
	Compute            uint64
	MemoryStall        uint64
	SpinIdle           uint64
	TotalCPUCycles     uint64
	NetworkTransit     uint64
	DirectoryOccupancy uint64
	AMUOccupancy       uint64
}

// Diff returns the componentwise difference s - prev: the measurement
// window between two snapshots of the same machine. It panics if the
// snapshots have different shapes (they came from different machines).
func (s Snapshot) Diff(prev Snapshot) Snapshot {
	if len(s.CPUs) != len(prev.CPUs) || len(s.Nodes) != len(prev.Nodes) {
		panic(fmt.Sprintf("metrics: Diff of mismatched snapshots (%d/%d CPUs, %d/%d nodes)",
			len(s.CPUs), len(prev.CPUs), len(s.Nodes), len(prev.Nodes)))
	}
	d := Snapshot{
		Cycle: s.Cycle - prev.Cycle,
		CPUs:  make([]CPUMetrics, len(s.CPUs)),
		Nodes: make([]NodeMetrics, len(s.Nodes)),
		Memory: MemoryStats{
			Reads:  s.Memory.Reads - prev.Memory.Reads,
			Writes: s.Memory.Writes - prev.Memory.Writes,
		},
		Network: s.Network.diff(prev.Network),
	}
	if s.Kernel != nil && prev.Kernel != nil {
		d.Kernel = &KernelStats{
			EventsExecuted: s.Kernel.EventsExecuted - prev.Kernel.EventsExecuted,
			HostMallocs:    s.Kernel.HostMallocs - prev.Kernel.HostMallocs,
			HostAllocBytes: s.Kernel.HostAllocBytes - prev.Kernel.HostAllocBytes,
		}
		if len(s.Kernel.ShardEvents) == len(prev.Kernel.ShardEvents) {
			for i, v := range s.Kernel.ShardEvents {
				d.Kernel.ShardEvents = append(d.Kernel.ShardEvents, v-prev.Kernel.ShardEvents[i])
			}
		}
	}
	for i, c := range s.CPUs {
		p := prev.CPUs[i]
		if c.ID != p.ID {
			panic(fmt.Sprintf("metrics: Diff of mismatched snapshots (cpu %d vs %d at index %d)", c.ID, p.ID, i))
		}
		d.CPUs[i] = CPUMetrics{
			ID:   c.ID,
			Node: c.Node,
			Counters: CPUStats{
				SCFailures:  c.Counters.SCFailures - p.Counters.SCFailures,
				AmsgNacks:   c.Counters.AmsgNacks - p.Counters.AmsgNacks,
				AmsgRetries: c.Counters.AmsgRetries - p.Counters.AmsgRetries,
				AmsgServed:  c.Counters.AmsgServed - p.Counters.AmsgServed,
			},
			Cache: CacheStats{
				Hits:      c.Cache.Hits - p.Cache.Hits,
				Misses:    c.Cache.Misses - p.Cache.Misses,
				Evictions: c.Cache.Evictions - p.Cache.Evictions,
			},
			Cycles: CycleBreakdown{
				Compute:     c.Cycles.Compute - p.Cycles.Compute,
				MemoryStall: c.Cycles.MemoryStall - p.Cycles.MemoryStall,
				SpinIdle:    c.Cycles.SpinIdle - p.Cycles.SpinIdle,
				Total:       c.Cycles.Total - p.Cycles.Total,
			},
		}
	}
	for i, n := range s.Nodes {
		p := prev.Nodes[i]
		d.Nodes[i] = NodeMetrics{
			Node: n.Node,
			Directory: DirectoryStats{
				Interventions:   n.Directory.Interventions - p.Directory.Interventions,
				Invalidations:   n.Directory.Invalidations - p.Directory.Invalidations,
				WordUpdates:     n.Directory.WordUpdates - p.Directory.WordUpdates,
				OccupancyCycles: n.Directory.OccupancyCycles - p.Directory.OccupancyCycles,
			},
			AMU: AMUStats{
				Ops:             n.AMU.Ops - p.AMU.Ops,
				CacheHits:       n.AMU.CacheHits - p.AMU.CacheHits,
				FinePuts:        n.AMU.FinePuts - p.AMU.FinePuts,
				Recalls:         n.AMU.Recalls - p.AMU.Recalls,
				OccupancyCycles: n.AMU.OccupancyCycles - p.AMU.OccupancyCycles,
			},
		}
		if n.Sync != nil && p.Sync != nil {
			d.Nodes[i].Sync = &SyncStats{
				Ops:             n.Sync.Ops - p.Sync.Ops,
				TableHits:       n.Sync.TableHits - p.Sync.TableHits,
				Overflows:       n.Sync.Overflows - p.Sync.Overflows,
				Forwards:        n.Sync.Forwards - p.Sync.Forwards,
				FinePuts:        n.Sync.FinePuts - p.Sync.FinePuts,
				Recalls:         n.Sync.Recalls - p.Sync.Recalls,
				OccupancyCycles: n.Sync.OccupancyCycles - p.Sync.OccupancyCycles,
			}
		}
		if n.DSM != nil && p.DSM != nil {
			d.Nodes[i].DSM = &DSMStats{
				RemoteLoads:     n.DSM.RemoteLoads - p.DSM.RemoteLoads,
				RemoteStores:    n.DSM.RemoteStores - p.DSM.RemoteStores,
				RemoteAtomics:   n.DSM.RemoteAtomics - p.DSM.RemoteAtomics,
				OccupancyCycles: n.DSM.OccupancyCycles - p.DSM.OccupancyCycles,
			}
		}
	}
	return d
}

func (n NetworkStats) diff(prev NetworkStats) NetworkStats {
	d := NetworkStats{
		Messages:      n.Messages - prev.Messages,
		LocalMessages: n.LocalMessages - prev.LocalMessages,
		Bytes:         n.Bytes - prev.Bytes,
		ByteHops:      n.ByteHops - prev.ByteHops,
		Hops:          n.Hops - prev.Hops,
		TransitCycles: n.TransitCycles - prev.TransitCycles,
	}
	for kind, count := range n.MessagesByKind {
		if delta := count - prev.MessagesByKind[kind]; delta != 0 {
			if d.MessagesByKind == nil {
				d.MessagesByKind = make(map[string]uint64)
			}
			d.MessagesByKind[kind] = delta
		}
	}
	return d
}

// Attribution aggregates the snapshot's cycle accounting.
func (s Snapshot) Attribution() Attribution {
	var a Attribution
	for _, c := range s.CPUs {
		a.Compute += c.Cycles.Compute
		a.MemoryStall += c.Cycles.MemoryStall
		a.SpinIdle += c.Cycles.SpinIdle
		a.TotalCPUCycles += c.Cycles.Total
	}
	a.NetworkTransit = s.Network.TransitCycles
	for _, n := range s.Nodes {
		a.DirectoryOccupancy += n.Directory.OccupancyCycles
		a.AMUOccupancy += n.AMU.OccupancyCycles
		// Alternative backends report their memory-side sync occupancy in
		// the same gauge; at most one of the three is nonzero per machine.
		if n.Sync != nil {
			a.AMUOccupancy += n.Sync.OccupancyCycles
		}
		if n.DSM != nil {
			a.AMUOccupancy += n.DSM.OccupancyCycles
		}
	}
	return a
}

// CheckConservation verifies the cycle-attribution invariant on s (a
// snapshot or a diff of two snapshots): for every CPU,
// Compute + MemoryStall + SpinIdle must equal Total exactly.
func (s Snapshot) CheckConservation() error {
	for _, c := range s.CPUs {
		sum := c.Cycles.Compute + c.Cycles.MemoryStall + c.Cycles.SpinIdle
		if sum != c.Cycles.Total {
			return fmt.Errorf("metrics: cpu %d cycle attribution does not conserve: compute %d + stall %d + spin %d = %d, total %d",
				c.ID, c.Cycles.Compute, c.Cycles.MemoryStall, c.Cycles.SpinIdle, sum, c.Cycles.Total)
		}
	}
	return nil
}
