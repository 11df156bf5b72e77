// Package machine assembles a complete simulated multiprocessor: the event
// engine, fat-tree network, per-node memory system, and per-CPU core +
// cache, wired per the configuration. Config.Backend selects the per-node
// memory system (see wire): the default amo backend builds the paper's
// CC-NUMA machine with a directory and active memory unit on every node;
// the syncron and dsm backends model NDP sync engines and coherence-free
// disaggregated memory. It is the substrate every synchronization
// experiment runs on.
package machine

import (
	"fmt"
	"runtime"

	"amosim/internal/cache"
	"amosim/internal/config"
	"amosim/internal/core"
	"amosim/internal/directory"
	"amosim/internal/dsm"
	"amosim/internal/memsys"
	"amosim/internal/metrics"
	"amosim/internal/network"
	"amosim/internal/proc"
	"amosim/internal/sim"
	"amosim/internal/syncron"
	"amosim/internal/topology"
	"amosim/internal/trace"
)

// Machine is one simulated multiprocessor instance. Create with New, attach
// programs with OnCPU (or OnAllCPUs), then call Run.
type Machine struct {
	Cfg   config.Config
	Eng   sim.Engine
	Net   *network.Network
	Mem   *memsys.Memory
	Dirs  []*directory.Controller // amo, syncron backends
	AMUs  []*core.AMU             // amo backend only
	Syncs []*syncron.Engine       // syncron backend only
	DSMs  []*dsm.Agent            // dsm backend only
	CPUs  []*proc.CPU

	// bodies counts the programs attached in the current phase; done[id]
	// marks CPU id's body complete. Each CPU writes only its own slot (from
	// its own shard), and the coordinator reads the slice only after the
	// engine quiesces, so the drain protocol is race-free on both kernels.
	bodies int
	done   []bool
	// phaseDone releases the serve tails: it is written by the coordinator
	// strictly between engine runs and read by parked CPUs on their next
	// wake, so a phase ends for every CPU at the same simulated instant.
	phaseDone bool
	phasePred func() bool

	// kernelMetrics adds the Kernel section to snapshots (see
	// EnableKernelMetrics).
	kernelMetrics bool
}

// Hub-side consumers of a message kind, indexed by hubRoute.
const (
	routeNone = iota
	routeDir
	routeAMU
)

// hubRoute is the hub dispatch function table: it maps each message kind to
// the node component that consumes it, replacing a long kind-comparison
// chain on the delivery hot path.
var hubRoute = [network.NumKinds]uint8{
	network.KindGetShared:       routeDir,
	network.KindGetExclusive:    routeDir,
	network.KindUpgrade:         routeDir,
	network.KindWriteback:       routeDir,
	network.KindInvalidateAck:   routeDir,
	network.KindInterventionAck: routeDir,
	network.KindAMORequest:      routeAMU,
	network.KindMAORequest:      routeAMU,
	network.KindUncachedLoad:    routeAMU,
	network.KindUncachedStore:   routeAMU,
}

// New builds a machine for the given configuration.
func New(cfg config.Config) (*Machine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	var topo topology.Topology
	var err error
	switch cfg.Interconnect {
	case "", "fattree":
		topo, err = topology.NewFatTree(cfg.Nodes(), cfg.RouterRadix)
	case "torus":
		topo, err = topology.NewTorus2D(cfg.Nodes())
	default:
		return nil, fmt.Errorf("machine: unknown interconnect %q", cfg.Interconnect)
	}
	if err != nil {
		return nil, err
	}
	eng, err := newEngine(cfg, topo)
	if err != nil {
		return nil, err
	}
	net := network.New(eng, topo, network.Params{
		HopCycles:  cfg.HopCycles,
		BusCycles:  cfg.BusCycles,
		MinPacket:  cfg.MinPacketBytes,
		HeaderSize: cfg.HeaderBytes,
	})
	mem := memsys.New(cfg.Nodes(), cfg.BlockBytes, cfg.DRAMCycles)

	m := &Machine{Cfg: cfg, Eng: eng, Net: net, Mem: mem}
	m.done = make([]bool, cfg.Processors)
	m.phasePred = func() bool { return m.phaseDone }

	m.wire()

	for id := 0; id < cfg.Processors; id++ {
		cch := cache.New(cfg.CacheSets, cfg.CacheWays, cfg.BlockBytes)
		cpu := proc.New(eng.ForNode(id/cfg.ProcsPerNode), net, cch, proc.Params{
			ID:           id,
			Node:         id / cfg.ProcsPerNode,
			ProcsPerNode: cfg.ProcsPerNode,
			BlockBytes:   cfg.BlockBytes,
			RemoteMemory: cfg.Backend == config.BackendDSM,
			LocalSyncHub: cfg.Backend == config.BackendSynCron,

			L1HitCycles:     cfg.L1HitCycles,
			IssueCycles:     cfg.IssueCycles,
			SpinCheckCycles: cfg.SpinCheckCycles,
			AtomicOpCycles:  cfg.L1HitCycles + 2,

			ActMsgInvokeCycles:  cfg.ActMsgInvokeCycles,
			ActMsgHandlerCycles: cfg.ActMsgHandlerCycles,
			ActMsgQueueDepth:    cfg.ActMsgQueueDepth,
			ActMsgTimeoutCycles: cfg.ActMsgTimeoutCycles,
		})
		m.CPUs = append(m.CPUs, cpu)
	}
	return m, nil
}

// newEngine builds the kernel the configuration selects. The parallel
// kernel's lookahead window is the minimum latency of any cross-shard
// message: cross-node traffic pays at least Hops(a,b)*HopCycles hub-to-hub,
// so the window is the minimum hop distance between nodes in different
// shards times the per-hop charge. Chaos perturbation only adds latency,
// so the bound stays conservative under fault injection.
func newEngine(cfg config.Config, topo topology.Topology) (sim.Engine, error) {
	shards := cfg.Shards
	if shards == 0 {
		shards = 1
	}
	if cfg.Engine != "parallel" || shards == 1 {
		return sim.NewSequential(), nil
	}
	nodes := cfg.Nodes()
	nodeShard := make([]int, nodes)
	for n := 0; n < nodes; n++ {
		nodeShard[n] = n * shards / nodes
	}
	minHops := topo.MinHopsAcross(nodeShard)
	if minHops == 0 {
		return nil, fmt.Errorf("machine: no cross-shard hop distance for %d shards over %d nodes", shards, nodes)
	}
	window := sim.Time(uint64(minHops) * cfg.HopCycles)
	return sim.NewParallel(shards, nodeShard, window), nil
}

// Metrics assembles an immutable snapshot of every counter in the machine:
// per-CPU counters, caches and cycle attribution, each node's directory
// and memory-side unit (nodeMetrics), memory accesses, network traffic
// and the opt-in Kernel section. It is safe to call at any simulated
// instant — between runs, from inside a program body, and after Shutdown —
// and never perturbs the simulation (no events are scheduled, no
// simulated time passes).
func (m *Machine) Metrics() metrics.Snapshot {
	s := metrics.Snapshot{
		Cycle: uint64(m.Eng.Now()),
		CPUs:  make([]metrics.CPUMetrics, len(m.CPUs)),
		Nodes: make([]metrics.NodeMetrics, m.Cfg.Nodes()),
	}
	for i, cpu := range m.CPUs {
		s.CPUs[i] = cpu.Metrics()
	}
	for n := range s.Nodes {
		s.Nodes[n] = m.nodeMetrics(n)
	}
	s.Memory = m.Mem.Stats()
	s.Network = m.Net.Metrics()
	if m.kernelMetrics {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		s.Kernel = &metrics.KernelStats{
			EventsExecuted: m.Eng.Executed(),
			HostMallocs:    ms.Mallocs,
			HostAllocBytes: ms.TotalAlloc,
		}
		if pe, ok := m.Eng.(*sim.Parallel); ok {
			s.Kernel.ShardEvents = pe.ShardExecuted()
		}
	}
	return s
}

// EnableKernelMetrics adds the opt-in Kernel section to this machine's
// snapshots: the event kernel's dispatch count plus host allocator gauges
// (runtime.MemStats), for tracking hot-path allocation behaviour. The
// Host fields are nondeterministic across runs, so golden-output
// comparisons must not enable this; machines that never call it produce
// byte-identical snapshots with no Kernel section.
func (m *Machine) EnableKernelMetrics() { m.kernelMetrics = true }

// hubHandler routes hub-bound messages to the node's directory or to its
// memory-side unit (an AMU's or a sync engine's Handle) via the hubRoute
// function table.
func (m *Machine) hubHandler(dir *directory.Controller, unit network.Handler) network.Handler {
	return func(msg *network.Msg) {
		switch hubRoute[msg.Kind] {
		case routeDir:
			dir.Handle(msg)
		case routeAMU:
			unit(msg)
		default:
			panic(fmt.Sprintf("machine: hub %d got unexpected %v", dir.Node(), msg))
		}
	}
}

// AllocWord allocates one block-aligned word on the given home node,
// returning its physical address. Distinct words never share a block.
func (m *Machine) AllocWord(home int) uint64 { return m.Mem.AllocWord(home) }

// OnCPU attaches a program to CPU id, started at the current cycle. After
// the program body returns, the CPU keeps serving active messages until the
// machine declares the phase complete (every attached body done and the
// event queue drained), so home CPUs stay responsive to stragglers. A CPU
// may be attached again once Run returns: each Run is one phase, and
// snapshots taken between phases observe a fully quiescent machine.
func (m *Machine) OnCPU(id int, program func(c *proc.CPU)) {
	m.bodies++
	m.CPUs[id].Run(0, func(c *proc.CPU) {
		program(c)
		m.done[id] = true
		c.ServeUntil(m.phasePred)
	})
}

// OnAllCPUs attaches program to every CPU (see OnCPU for the serve tail).
func (m *Machine) OnAllCPUs(program func(c *proc.CPU)) {
	for id := range m.CPUs {
		m.OnCPU(id, program)
	}
}

// RegisterHandlerAll installs an active-message handler on every CPU.
func (m *Machine) RegisterHandlerAll(id int, h proc.Handler) {
	for _, c := range m.CPUs {
		c.RegisterHandler(id, h)
	}
}

// Run drives the simulation until every attached program finishes and the
// machine quiesces. It returns the final cycle count, or an error on
// deadlock.
//
// The drain protocol: the engine runs until its queue empties, which parks
// every finished body in its serve loop and surfaces as a deadlock report.
// If every attached body has completed, that "deadlock" is phase
// quiescence — the machine raises phaseDone, wakes all CPUs (in CPU order,
// identically on both kernels), and runs the engine once more so the serve
// tails unwind. Only a drain with unfinished bodies is a real deadlock.
func (m *Machine) Run() (sim.Time, error) {
	return m.RunUntil(^sim.Time(0))
}

// RunUntil drives the simulation up to the deadline (see Run).
func (m *Machine) RunUntil(deadline sim.Time) (sim.Time, error) {
	for {
		err := m.Eng.RunUntil(deadline)
		if err == nil {
			break
		}
		dl, ok := err.(*sim.ErrDeadlock)
		if !ok || !m.allBodiesDone() {
			return m.Eng.Now(), err
		}
		_ = dl
		m.phaseDone = true
		for _, c := range m.CPUs {
			c.Poke()
		}
	}
	// Reset the attachment ledger so a next phase can be attached.
	m.phaseDone = false
	m.bodies = 0
	for i := range m.done {
		m.done[i] = false
	}
	return m.Eng.Now(), nil
}

func (m *Machine) allBodiesDone() bool {
	n := 0
	for _, d := range m.done {
		if d {
			n++
		}
	}
	return n == m.bodies
}

// Shutdown stops the coroutines that run programs, unwinding any parked
// program. Call it when done with a machine, after a clean run as well as
// after deadlock or deadline: finished programs leave their coroutines idle
// for reuse, so skipping it leaks goroutines.
func (m *Machine) Shutdown() { m.Eng.Shutdown() }

// EnableTrace attaches a message tracer retaining the most recent capacity
// records and returns it. Records flow through the engine's ordered Emit
// sink, so the trace is byte-identical across kernels.
func (m *Machine) EnableTrace(capacity int) *trace.Tracer {
	t := trace.New(capacity)
	m.Eng.SetEmitSink(t.Add)
	m.Net.SetTracing(true)
	return t
}
