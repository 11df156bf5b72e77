// Package config defines the simulated machine configuration.
//
// Defaults follow Table 1 of Zhang, Fang & Carter, "Highly Efficient
// Synchronization Based on Active Memory Operations" (IPDPS 2004): a 2 GHz
// 4-issue core per processor, two processors per node, 128 B L2 lines, a
// 500 MHz hub, 60-cycle DRAM, and a radix-8 fat-tree interconnect with
// 100-cycle hops and 32 B minimum packets. All latencies are expressed in
// CPU cycles.
package config

import (
	"fmt"
	"strings"
)

// Backend selects the memory-system model the machine is built around.
// The zero value is BackendAMO, the paper's directory-based CC-NUMA with
// per-node active memory units, so existing configurations are unchanged.
type Backend int

const (
	// BackendAMO is the paper's machine: MSI directory coherence with the
	// fine-grained get/put extension and an AMU at every home node.
	BackendAMO Backend = iota
	// BackendSynCron models a SynCron-style NDP hierarchy: coherent CPU
	// caches plus per-memory-partition synchronization engines with small
	// bounded sync tables (overflow spills to memory) and hierarchical
	// local-engine-first coordination.
	BackendSynCron
	// BackendDSM models coherence-free disaggregated shared memory: no
	// directory, no cached data, every access a remote read/write/atomic
	// with RDMA-class latency served by a per-node memory agent.
	BackendDSM

	numBackends
)

// Backends lists every backend in canonical order.
var Backends = []Backend{BackendAMO, BackendSynCron, BackendDSM}

var backendNames = [...]string{
	BackendAMO:     "amo",
	BackendSynCron: "syncron",
	BackendDSM:     "dsm",
}

func (b Backend) String() string {
	if b < 0 || b >= numBackends {
		return fmt.Sprintf("Backend(%d)", int(b))
	}
	return backendNames[b]
}

// Valid reports whether b names a known backend.
func (b Backend) Valid() bool { return b >= 0 && b < numBackends }

// ParseBackend converts a name ("amo", "syncron", "dsm", any case) into a
// Backend. The mapping round-trips with Backend.String.
func ParseBackend(s string) (Backend, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "amo":
		return BackendAMO, nil
	case "syncron":
		return BackendSynCron, nil
	case "dsm":
		return BackendDSM, nil
	default:
		return 0, fmt.Errorf("unknown backend %q (have amo, syncron, dsm)", s)
	}
}

// Config holds every tunable parameter of the simulated machine. The zero
// value is invalid; start from Default and override fields.
type Config struct {
	// Backend selects the memory-system model. The zero value (BackendAMO)
	// is the paper's CC-NUMA/AMU machine.
	Backend Backend
	// Processors is the total CPU count. Must be a positive multiple of
	// ProcsPerNode.
	Processors int
	// ProcsPerNode is the number of CPUs sharing one node (hub + memory).
	ProcsPerNode int

	// L1HitCycles is the load-to-use latency of an L1 data cache hit.
	L1HitCycles uint64
	// L2HitCycles is the latency of an L2 hit (L1 miss).
	L2HitCycles uint64
	// BlockBytes is the coherence granule (L2 line size).
	BlockBytes int
	// CacheWays and CacheSets define the modeled L2 geometry.
	CacheWays int
	CacheSets int

	// BusCycles is the one-way latency between a CPU and its local hub
	// (processor interface + system bus).
	BusCycles uint64
	// DirCycles is the directory lookup/occupancy charge per transaction at
	// the hub (500 MHz hub; a few hub cycles expressed in CPU cycles).
	DirCycles uint64
	// DRAMCycles is the DRAM access latency.
	DRAMCycles uint64

	// HopCycles is the network latency per hop (50 ns at 2 GHz = 100).
	HopCycles uint64
	// InjectCycles serializes multi-message fan-out at a hub's network port
	// (invalidation bursts, word-update bursts): the i-th packet leaves
	// i*InjectCycles after the first.
	InjectCycles uint64
	// MulticastUpdates models a network with hardware multicast for the
	// fine-grained update wave (the paper's footnote 2: "AMO performance
	// would be even higher if the network supported such operations"):
	// word-update bursts leave the hub as one injection instead of being
	// serialized.
	MulticastUpdates bool
	// RouterRadix is the fat-tree branching factor (children per router).
	RouterRadix int
	// Interconnect selects the topology model: "fattree" (NUMALink-style,
	// the paper's configuration, and the default when empty) or "torus"
	// (Cray-T3E-style 2D torus, for interconnect ablations).
	Interconnect string
	// Engine selects the event kernel: "seq" (the single-heap sequential
	// kernel, and the default when empty) or "parallel" (the conservative
	// lookahead-window kernel, which partitions nodes across Shards and
	// reproduces the sequential event order exactly; see internal/sim).
	Engine string
	// Shards is the parallel kernel's partition count; 0 means 1. Values
	// above 1 require Engine "parallel" and at most one shard per node.
	// Engine "parallel" with Shards <= 1 runs the sequential kernel.
	Shards int
	// MinPacketBytes is the minimum network packet size.
	MinPacketBytes int
	// HeaderBytes is the per-packet header charge used for traffic stats.
	HeaderBytes int

	// AMUCacheWords is the size of the AMU's operand cache; each cached word
	// supports one outstanding synchronization variable (paper: 8).
	AMUCacheWords int
	// AMUOpCycles is the function-unit latency for an AMO/MAO that hits in
	// the AMU cache (paper: 2).
	AMUOpCycles uint64
	// AMUQueueCycles is the queue/dispatch charge per AMU request.
	AMUQueueCycles uint64

	// ActMsgInvokeCycles is the software overhead of invoking an active
	// message handler on the home CPU (interrupt entry, dispatch, exit). The
	// paper notes this dwarfs the handler body.
	ActMsgInvokeCycles uint64
	// ActMsgHandlerCycles is the handler body cost (increment + test).
	ActMsgHandlerCycles uint64
	// ActMsgQueueDepth bounds the per-CPU handler queue; arrivals beyond it
	// are NACKed and retransmitted.
	ActMsgQueueDepth int
	// ActMsgTimeoutCycles is the sender's retransmission timeout after a
	// NACK.
	ActMsgTimeoutCycles uint64

	// IssueCycles is the fixed per-memory-op issue overhead in the core.
	IssueCycles uint64
	// SpinCheckCycles is the cost of one spin-loop iteration beyond the
	// load itself (compare + branch).
	SpinCheckCycles uint64

	// SyncPartitions (BackendSynCron) is the number of independent
	// synchronization engines per node; requests partition by word address.
	// Must be a power of two.
	SyncPartitions int
	// SyncTableEntries (BackendSynCron) bounds each engine's sync table;
	// a miss with a full table spills the LRU entry back to memory. Must be
	// a power of two.
	SyncTableEntries int
	// SyncInspectCycles (BackendSynCron) is the local engine's charge for
	// inspecting a request before forwarding it to the home partition.
	SyncInspectCycles uint64
	// DSMRemoteCycles (BackendDSM) is the one-sided remote-access service
	// latency at the memory agent, on top of network transit.
	DSMRemoteCycles uint64
}

// Default returns the paper's Table 1 configuration for p processors.
func Default(p int) Config {
	return Config{
		Processors:   p,
		ProcsPerNode: 2,

		L1HitCycles: 2,
		L2HitCycles: 10,
		BlockBytes:  128,
		CacheWays:   4,
		CacheSets:   128,

		BusCycles:  16,
		DirCycles:  8,
		DRAMCycles: 60,

		HopCycles:      100,
		InjectCycles:   8,
		RouterRadix:    8,
		MinPacketBytes: 32,
		HeaderBytes:    16,

		AMUCacheWords:  8,
		AMUOpCycles:    2,
		AMUQueueCycles: 8,

		ActMsgInvokeCycles:  400,
		ActMsgHandlerCycles: 40,
		ActMsgQueueDepth:    16,
		ActMsgTimeoutCycles: 1200,

		IssueCycles:     1,
		SpinCheckCycles: 2,

		SyncPartitions:    4,
		SyncTableEntries:  8,
		SyncInspectCycles: 4,
		DSMRemoteCycles:   1600,
	}
}

// Nodes returns the node count implied by the configuration.
func (c Config) Nodes() int { return c.Processors / c.ProcsPerNode }

// WordsPerBlock returns the number of 8-byte words per coherence block.
func (c Config) WordsPerBlock() int { return c.BlockBytes / 8 }

// FieldError is the typed validation error: it names the Config field (or
// field group) that failed and why, so callers can report or branch on the
// offending knob instead of parsing a message. NewMachine surfaces these
// before any component is built, replacing panics deep in topology/memsys.
type FieldError struct {
	Field  string
	Reason string
}

func (e *FieldError) Error() string { return fmt.Sprintf("config: %s %s", e.Field, e.Reason) }

func fail(field, format string, args ...any) *FieldError {
	return &FieldError{Field: field, Reason: fmt.Sprintf(format, args...)}
}

func isPow2(n int) bool { return n > 0 && n&(n-1) == 0 }

// Validate reports the first configuration error, or nil. All errors are
// *FieldError values.
func (c Config) Validate() error {
	switch {
	case c.Processors <= 0:
		return fail("Processors", "must be positive, got %d", c.Processors)
	case c.ProcsPerNode <= 0:
		return fail("ProcsPerNode", "must be positive, got %d", c.ProcsPerNode)
	case c.Processors%c.ProcsPerNode != 0:
		return fail("Processors", "(%d) must be a multiple of ProcsPerNode (%d)", c.Processors, c.ProcsPerNode)
	case c.BlockBytes <= 0 || c.BlockBytes%8 != 0:
		return fail("BlockBytes", "must be a positive multiple of 8, got %d", c.BlockBytes)
	case !isPow2(c.BlockBytes):
		return fail("BlockBytes", "must be a power of two, got %d", c.BlockBytes)
	case c.CacheWays <= 0 || c.CacheSets <= 0:
		return fail("CacheWays/CacheSets", "cache geometry must be positive, got %d ways x %d sets", c.CacheWays, c.CacheSets)
	case !isPow2(c.CacheSets):
		return fail("CacheSets", "must be a power of two, got %d", c.CacheSets)
	case c.RouterRadix < 2:
		return fail("RouterRadix", "must be >= 2, got %d", c.RouterRadix)
	case !isPow2(c.RouterRadix):
		return fail("RouterRadix", "must be a power of two, got %d", c.RouterRadix)
	case c.Interconnect != "" && c.Interconnect != "fattree" && c.Interconnect != "torus":
		return fail("Interconnect", "must be \"fattree\" or \"torus\", got %q", c.Interconnect)
	case c.Interconnect == "torus" && !isPow2(c.Nodes()):
		return fail("Interconnect", "torus requires a power-of-two node count, got %d", c.Nodes())
	case c.Engine != "" && c.Engine != "seq" && c.Engine != "parallel":
		return fail("Engine", "must be \"seq\" or \"parallel\", got %q", c.Engine)
	case c.Shards < 0:
		return fail("Shards", "must be >= 0, got %d", c.Shards)
	case c.Shards > 1 && c.Engine != "parallel":
		return fail("Shards", "(%d) requires Engine \"parallel\"", c.Shards)
	case c.Shards > c.Nodes():
		return fail("Shards", "(%d) must not exceed the node count (%d)", c.Shards, c.Nodes())
	case c.AMUCacheWords < 0:
		return fail("AMUCacheWords", "must be >= 0, got %d", c.AMUCacheWords)
	case c.ActMsgQueueDepth <= 0:
		return fail("ActMsgQueueDepth", "must be positive, got %d", c.ActMsgQueueDepth)
	case c.MinPacketBytes <= 0:
		return fail("MinPacketBytes", "must be positive, got %d", c.MinPacketBytes)
	case c.HeaderBytes < 0:
		return fail("HeaderBytes", "must be >= 0, got %d", c.HeaderBytes)
	case !c.Backend.Valid():
		return fail("Backend", "unknown backend %d (have %v)", int(c.Backend), Backends)
	}
	if c.Backend == BackendSynCron {
		switch {
		case !isPow2(c.SyncPartitions):
			return fail("SyncPartitions", "must be a power of two, got %d", c.SyncPartitions)
		case !isPow2(c.SyncTableEntries):
			return fail("SyncTableEntries", "must be a power of two, got %d", c.SyncTableEntries)
		}
	}
	if c.Backend == BackendDSM && c.DSMRemoteCycles == 0 {
		return fail("DSMRemoteCycles", "latency must be positive")
	}
	// Every modeled latency must be positive: a zero charge would let the
	// corresponding pipeline stage complete in the same simulated instant,
	// collapsing event orderings the protocols rely on. (InjectCycles and
	// SpinCheckCycles are deliberate exceptions: zero disables the charge.)
	latencies := []struct {
		field string
		v     uint64
	}{
		{"L1HitCycles", c.L1HitCycles},
		{"BusCycles", c.BusCycles},
		{"DirCycles", c.DirCycles},
		{"DRAMCycles", c.DRAMCycles},
		{"HopCycles", c.HopCycles},
		{"IssueCycles", c.IssueCycles},
		{"AMUOpCycles", c.AMUOpCycles},
	}
	for _, l := range latencies {
		if l.v == 0 {
			return fail(l.field, "latency must be positive")
		}
	}
	return nil
}
