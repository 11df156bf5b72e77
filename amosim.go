// Package amosim is a simulator-backed reproduction of Zhang, Fang &
// Carter, "Highly Efficient Synchronization Based on Active Memory
// Operations" (IPDPS 2004).
//
// It provides a deterministic discrete-event CC-NUMA multiprocessor model —
// directory coherence with the paper's fine-grained get/put update
// extension, an Active Memory Unit per node, a radix-8 fat-tree interconnect
// — plus the paper's five synchronization mechanisms (LL/SC, processor-side
// atomics, active messages, memory-side atomics, AMOs) applied to
// centralized barriers, combining-tree barriers, ticket locks and
// array-based queuing locks, and a harness that regenerates every table and
// figure of the paper's evaluation.
//
// # Quick start
//
//	cfg := amosim.DefaultConfig(8)
//	m, _ := amosim.NewMachine(cfg)
//	defer m.Shutdown()
//	b := amosim.NewBarrier(m, amosim.AMO, cfg.Processors, 0)
//	m.OnAllCPUs(func(c *amosim.CPU) {
//	    for i := 0; i < 10; i++ {
//	        b.Wait(c)
//	    }
//	})
//	cycles, err := m.Run()
//
// Experiment runners (RunBarrier, BestTreeBarrier, RunLock, ...) wrap this
// pattern with warm-up, alignment and measurement windows.
package amosim

import (
	"amosim/internal/config"
	"amosim/internal/core"
	"amosim/internal/isa"
	"amosim/internal/machine"
	"amosim/internal/metrics"
	"amosim/internal/proc"
	"amosim/internal/stats"
	"amosim/internal/syncprim"
	"amosim/internal/trace"
	"amosim/internal/workload"
)

// Tracer is a bounded in-memory message/event log; attach one with
// Machine.EnableTrace to watch protocol traffic message by message.
type Tracer = trace.Tracer

// Config is the simulated machine configuration (Table 1 of the paper).
type Config = config.Config

// DefaultConfig returns the paper's Table 1 configuration for p processors.
func DefaultConfig(p int) Config { return config.Default(p) }

// Backend selects the simulated memory-system organization (see
// Config.Backend): the paper's CC-NUMA/AMU machine, SynCron-style NDP sync
// engines, or coherence-free disaggregated shared memory.
type Backend = config.Backend

// The three memory-system backends.
const (
	// BackendAMO is the paper's machine: MSI directory + active memory
	// unit per node. The default.
	BackendAMO = config.BackendAMO
	// BackendSynCron models NDP per-partition sync engines with bounded
	// sync tables and hierarchical coordination.
	BackendSynCron = config.BackendSynCron
	// BackendDSM models disaggregated shared memory: no coherence, every
	// access a remote read/write/atomic at RDMA-class latency.
	BackendDSM = config.BackendDSM
)

// Backends lists all backends in presentation order (amo, syncron, dsm).
var Backends = config.Backends

// ParseBackend parses a backend name, case-insensitively. It round-trips
// with Backend.String: ParseBackend(b.String()) == b for every backend.
func ParseBackend(s string) (Backend, error) { return config.ParseBackend(s) }

// Machine is a simulated multiprocessor (CC-NUMA/AMU by default; see
// Backend for the alternatives).
type Machine = machine.Machine

// NewMachine builds a machine for the configuration.
func NewMachine(cfg Config) (*Machine, error) { return machine.New(cfg) }

// CPU is one simulated processor; programs receive their CPU and issue
// memory and synchronization operations on it.
type CPU = proc.CPU

// SpinPred is CPU.SpinUntil's exit condition on the loaded word.
type SpinPred = proc.Pred

// AtLeast, Equal and NotEqual build the spin predicates v >= x, v == x and
// v != x.
func AtLeast(x uint64) SpinPred  { return proc.AtLeast(x) }
func Equal(x uint64) SpinPred    { return proc.Equal(x) }
func NotEqual(x uint64) SpinPred { return proc.NotEqual(x) }

// Mechanism selects the atomic-primitive implementation for barriers and
// locks.
type Mechanism = syncprim.Mechanism

// The five mechanisms compared in the paper, plus the post-paper
// hierarchical Combining class.
const (
	LLSC   = syncprim.LLSC
	Atomic = syncprim.Atomic
	ActMsg = syncprim.ActMsg
	MAO    = syncprim.MAO
	AMO    = syncprim.AMO
	// Combining is NUMA-clustered hierarchical combining (cohort locks and
	// flat-combining barriers built from plain atomics) — the modern
	// software competitor the paper predates. It is not part of
	// Mechanisms, which the golden tables iterate.
	Combining = syncprim.Combining
)

// Mechanisms lists the paper's five mechanisms in presentation order.
var Mechanisms = syncprim.Mechanisms

// AllMechanisms additionally includes the post-paper Combining class.
var AllMechanisms = syncprim.AllMechanisms

// ParseMechanism parses a mechanism name, case-insensitively, accepting
// both String forms ("LL/SC") and CLI spellings ("llsc"). It round-trips
// with Mechanism.String.
func ParseMechanism(s string) (Mechanism, error) { return syncprim.ParseMechanism(s) }

// Barrier is a centralized barrier (Figure 3 of the paper).
type Barrier = syncprim.Barrier

// NewBarrier allocates a barrier on the given home node.
func NewBarrier(m *Machine, mech Mechanism, procs, home int) *Barrier {
	return syncprim.NewBarrier(m, mech, procs, home)
}

// TreeBarrier is a two-level software combining-tree barrier (Yew et al.).
type TreeBarrier = syncprim.TreeBarrier

// NewTreeBarrier builds a two-level tree with the given branching factor.
func NewTreeBarrier(m *Machine, mech Mechanism, procs, branching int) *TreeBarrier {
	return syncprim.NewTreeBarrier(m, mech, procs, branching)
}

// SenseBarrier is the classic sense-reversing centralized barrier (count
// reset + sense flip), provided as an extension baseline.
type SenseBarrier = syncprim.SenseBarrier

// NewSenseBarrier allocates a sense-reversing barrier on the home node.
func NewSenseBarrier(m *Machine, mech Mechanism, procs, home int) *SenseBarrier {
	return syncprim.NewSenseBarrier(m, mech, procs, home)
}

// DisseminationBarrier is the O(log P)-latency dissemination barrier,
// provided as an extension baseline; it uses no atomic primitive.
type DisseminationBarrier = syncprim.DisseminationBarrier

// NewDisseminationBarrier builds dissemination state; amo selects
// update-push signalling instead of coherent stores.
func NewDisseminationBarrier(m *Machine, procs int, amo bool) *DisseminationBarrier {
	return syncprim.NewDisseminationBarrier(m, procs, amo)
}

// MCSLock is the Mellor-Crummey & Scott queue lock, the strongest
// conventional lock baseline.
type MCSLock = syncprim.MCSLock

// NewMCSLock allocates MCS state for up to procs waiters.
func NewMCSLock(m *Machine, mech Mechanism, procs, home int) *MCSLock {
	return syncprim.NewMCSLock(m, mech, procs, home)
}

// CombiningBarrier is the hierarchical flat-combining barrier of the
// Combining mechanism class: per-cluster combiners collect local arrivals
// and meet at a root counter, with clusters sized from the machine
// topology.
type CombiningBarrier = syncprim.CombiningBarrier

// NewCombiningBarrier builds a combining barrier; cluster 0 derives the
// cluster size from the machine topology.
func NewCombiningBarrier(m *Machine, mech Mechanism, procs, home, cluster int) *CombiningBarrier {
	return syncprim.NewCombiningBarrier(m, mech, procs, home, cluster)
}

// CombiningLock is the hierarchical cohort lock of the Combining mechanism
// class: per-cluster MCS queues under a central MCS lock, with bounded
// local baton passing.
type CombiningLock = syncprim.CombiningLock

// NewCombiningLock allocates cohort-lock state; cluster 0 derives the
// cluster size from the machine topology, passLimit 0 selects the default
// local-handoff budget.
func NewCombiningLock(m *Machine, mech Mechanism, procs, home, cluster, passLimit int) *CombiningLock {
	return syncprim.NewCombiningLock(m, mech, procs, home, cluster, passLimit)
}

// CombiningClusterSize derives the combining cluster size (in CPUs) for a
// configuration: one torus row of nodes on a torus, one router group on
// the fat tree.
func CombiningClusterSize(cfg Config) int { return syncprim.CombiningClusterSize(cfg) }

// TicketLock is the FIFO ticket lock (Figure 4 of the paper).
type TicketLock = syncprim.TicketLock

// NewTicketLock allocates a ticket lock on the given home node.
func NewTicketLock(m *Machine, mech Mechanism, home int) *TicketLock {
	return syncprim.NewTicketLock(m, mech, home)
}

// ArrayLock is T. Anderson's array-based queuing lock.
type ArrayLock = syncprim.ArrayLock

// NewArrayLock allocates an array lock with the given slot count.
func NewArrayLock(m *Machine, mech Mechanism, slots, home int) *ArrayLock {
	return syncprim.NewArrayLock(m, mech, slots, home)
}

// AMOOp is an active-memory opcode (amo.inc, amo.fetchadd, amo.swap,
// amo.cswap).
type AMOOp = core.Op

// AMO opcodes.
const (
	OpInc         = core.OpInc
	OpFetchAdd    = core.OpFetchAdd
	OpSwap        = core.OpSwap
	OpCompareSwap = core.OpCompareSwap
	OpAnd         = core.OpAnd
	OpOr          = core.OpOr
	OpXor         = core.OpXor
	OpMax         = core.OpMax
)

// AMO instruction flag bits.
const (
	// FlagTest fires the fine-grained update only when the result equals
	// the instruction's test value.
	FlagTest = core.FlagTest
	// FlagUpdateAlways fires the update after every operation.
	FlagUpdateAlways = core.FlagUpdateAlways
)

// AMOInstr is a decoded AMO instruction word (the MIPS-IV SPECIAL2
// encoding of §3 of the paper).
type AMOInstr = isa.Instr

// EncodeAMO packs an AMO instruction into its 32-bit instruction word.
func EncodeAMO(i AMOInstr) (uint32, error) { return isa.Encode(i) }

// DecodeAMO unpacks a 32-bit instruction word, rejecting non-AMO words.
func DecodeAMO(w uint32) (AMOInstr, error) { return isa.Decode(w) }

// Snapshot is an immutable, JSON-marshalable view of every counter in a
// machine at one simulated instant: per-CPU counters, caches and cycle
// attribution, per-node directory and AMU counters, memory accesses and
// network traffic. Take one with Machine.Metrics; subtract two with Diff to
// measure a window. Marshaling is deterministic: identical runs produce
// byte-identical JSON.
type Snapshot = metrics.Snapshot

// CycleBreakdown attributes one CPU's cycles to compute, memory stall and
// spin/idle; the three always sum exactly to Total.
type CycleBreakdown = metrics.CycleBreakdown

// Attribution is a machine-wide cycle-attribution rollup (see
// Snapshot.Attribution).
type Attribution = metrics.Attribution

// CPUMetrics is one CPU's slice of a Snapshot.
type CPUMetrics = metrics.CPUMetrics

// NodeMetrics is one node's slice of a Snapshot (directory + AMU).
type NodeMetrics = metrics.NodeMetrics

// Named counter groups inside a Snapshot, replacing the positional
// multi-return counter tuples of earlier versions.
type (
	CPUStats       = metrics.CPUStats
	CacheStats     = metrics.CacheStats
	DirectoryStats = metrics.DirectoryStats
	AMUStats       = metrics.AMUStats
	MemoryStats    = metrics.MemoryStats
	NetworkStats   = metrics.NetworkStats
)

// BarrierResult describes one barrier experiment.
type BarrierResult = stats.BarrierResult

// LockResult describes one lock experiment.
type LockResult = stats.LockResult

// Speedup returns how many times faster x is than base, given cycle costs.
func Speedup(baseCycles, xCycles float64) float64 { return stats.Speedup(baseCycles, xCycles) }

// WorkloadSpec is one registered application workload: a stable name, its
// parameters (rendered into both labels and cache keys), and a sweep-point
// constructor. See internal/workload.
type WorkloadSpec = workload.Spec

// WorkloadRunConfig carries the cross-cutting selectors a workload spec
// consumes beyond the machine config (the chaos plan).
type WorkloadRunConfig = workload.RunConfig

// WorkloadSpecs returns every registered workload spec in presentation
// order.
func WorkloadSpecs() []WorkloadSpec { return workload.All() }

// WorkloadSpecByName returns the registered spec with the given name.
func WorkloadSpecByName(name string) (WorkloadSpec, bool) { return workload.ByName(name) }

// WorkloadResult reports one verified closed-loop workload run.
type WorkloadResult = workload.Result

// TrafficOptions configure the open-loop traffic driver (arrival process,
// offered rate, request counts, seed).
type TrafficOptions = workload.TrafficOptions

// TrafficResult reports one verified open-loop traffic run, including the
// sojourn-time percentile window.
type TrafficResult = workload.TrafficResult

// LatencyWindow is a sojourn-time summary: count, mean, p50/p99/p999 and
// max cycles, with Exact reporting whether quantiles came from retained
// samples or log-spaced histogram buckets.
type LatencyWindow = stats.LatencyWindow
