package machine

import (
	"amosim/internal/config"
	"amosim/internal/core"
	"amosim/internal/directory"
	"amosim/internal/dsm"
	"amosim/internal/memsys"
	"amosim/internal/metrics"
	"amosim/internal/proc"
	"amosim/internal/syncron"
)

// Backend is the pluggable memory-system seam: everything machine
// construction used to hardwire to the directory+AMU design — per-node
// component wiring, hub message routing, per-CPU parameter adjustments,
// node metrics registration, and the coherent-read/quiescence checks —
// goes through this interface. New selects the implementation from
// Config.Backend; the zero value builds AMOBackend, the paper's machine.
//
// The contract, in call order during New:
//
//  1. Wire(m) runs after the engine, topology, network and memory exist
//     but before any CPU: it builds the backend's per-node components and
//     must register a hub handler on every node.
//  2. CPUParams(p) maps the machine-derived per-CPU parameters to the
//     backend's access model (e.g. remote memory, local-first sync
//     routing); the identity function for the default machine.
//  3. RegisterNodeMetrics(m) appends one NodeMetrics collector per node,
//     in node order, to m's registry.
//
// After construction, PeekWord(addr) reports the backend-held
// authoritative value of a word (the AMU/sync-table copy inside the
// release-consistency window), and CheckQuiescence() verifies
// backend-specific invariants once the machine has drained.
type Backend interface {
	Wire(m *Machine) error
	CPUParams(p proc.Params) proc.Params
	RegisterNodeMetrics(m *Machine)
	PeekWord(addr uint64) (uint64, bool)
	CheckQuiescence() error
}

// backendFor maps the validated config enum to a Backend implementation.
func backendFor(b config.Backend) Backend {
	switch b {
	case config.BackendSynCron:
		return &SynCronBackend{}
	case config.BackendDSM:
		return &DSMBackend{}
	default:
		return &AMOBackend{}
	}
}

// newDirectory builds node n's MSI directory controller for a coherent
// backend (amo, syncron) and appends it to m.Dirs.
func (m *Machine) newDirectory(n int) *directory.Controller {
	cfg := m.Cfg
	dir := directory.New(m.EngFor(n), m.Net, m.Mem, directory.Params{
		Node:             n,
		ProcsPerNode:     cfg.ProcsPerNode,
		Procs:            cfg.Processors,
		BlockBytes:       cfg.BlockBytes,
		DirCycles:        cfg.DirCycles,
		DRAMCycles:       cfg.DRAMCycles,
		InjectCycles:     cfg.InjectCycles,
		MulticastUpdates: cfg.MulticastUpdates,
	})
	m.Dirs = append(m.Dirs, dir)
	return dir
}

// --- amo: the paper's CC-NUMA/AMU machine -----------------------------------

// AMOBackend wires the default machine: an MSI directory and an active
// memory unit on every node, exactly as machine.New always built it.
type AMOBackend struct {
	m *Machine
}

// Wire implements Backend.
func (b *AMOBackend) Wire(m *Machine) error {
	b.m = m
	cfg := m.Cfg
	for n := 0; n < cfg.Nodes(); n++ {
		dir := m.newDirectory(n)
		amu := core.New(m.EngFor(n), m.Net, m.Mem, dir, core.Params{
			Node:        n,
			CacheWords:  cfg.AMUCacheWords,
			OpCycles:    cfg.AMUOpCycles,
			QueueCycles: cfg.AMUQueueCycles,
			DRAMCycles:  cfg.DRAMCycles,
			BlockBytes:  cfg.BlockBytes,
		})
		dir.SetAMU(amu)
		m.AMUs = append(m.AMUs, amu)
		m.Net.RegisterHub(n, m.hubHandler(dir, amu.Handle))
	}
	return nil
}

// CPUParams implements Backend: the default machine uses the parameters
// unchanged.
func (b *AMOBackend) CPUParams(p proc.Params) proc.Params { return p }

// RegisterNodeMetrics implements Backend.
func (b *AMOBackend) RegisterNodeMetrics(m *Machine) {
	for n := range m.Dirs {
		node, dir, amu := n, m.Dirs[n], m.AMUs[n]
		m.reg.RegisterNode(func() metrics.NodeMetrics {
			return metrics.NodeMetrics{Node: node, Directory: dir.Stats(), AMU: amu.Stats()}
		})
	}
}

// PeekWord implements Backend: the home AMU's operand cache is
// authoritative inside the release-consistency window.
func (b *AMOBackend) PeekWord(addr uint64) (uint64, bool) {
	return b.m.AMUs[memsys.HomeNode(addr)].Peek(addr)
}

// CheckQuiescence implements Backend: the directory-based invariants are
// covered by the generic CheckCoherence pass; every AMU must have an empty
// queue and an idle function unit.
func (b *AMOBackend) CheckQuiescence() error { return quiesced(b.m.AMUs) }

// --- syncron: NDP per-partition sync engines --------------------------------

// SynCronBackend keeps the coherent directory but replaces the AMU with
// per-memory-partition synchronization engines (internal/syncron): each
// partition is a core.AMU whose operand cache is a bounded sync table
// with overflow-to-memory, behind hierarchical local-engine-first request
// routing.
type SynCronBackend struct {
	m *Machine
}

// Wire implements Backend.
func (b *SynCronBackend) Wire(m *Machine) error {
	b.m = m
	cfg := m.Cfg
	for n := 0; n < cfg.Nodes(); n++ {
		dir := m.newDirectory(n)
		eng := syncron.New(m.EngFor(n), m.Net, m.Mem, dir, syncron.Params{
			Node:          n,
			Partitions:    cfg.SyncPartitions,
			TableEntries:  cfg.SyncTableEntries,
			OpCycles:      cfg.AMUOpCycles,
			QueueCycles:   cfg.AMUQueueCycles,
			DRAMCycles:    cfg.DRAMCycles,
			InspectCycles: cfg.SyncInspectCycles,
			BlockBytes:    cfg.BlockBytes,
		})
		dir.SetAMU(eng)
		m.Syncs = append(m.Syncs, eng)
		m.Net.RegisterHub(n, m.hubHandler(dir, eng.Handle))
	}
	return nil
}

// CPUParams implements Backend: AMO/MAO requests route to the CPU's local
// engine first (hierarchical coordination).
func (b *SynCronBackend) CPUParams(p proc.Params) proc.Params {
	p.LocalSyncHub = true
	return p
}

// RegisterNodeMetrics implements Backend.
func (b *SynCronBackend) RegisterNodeMetrics(m *Machine) {
	for n := range m.Dirs {
		node, dir, eng := n, m.Dirs[n], m.Syncs[n]
		m.reg.RegisterNode(func() metrics.NodeMetrics {
			s := eng.Stats()
			return metrics.NodeMetrics{Node: node, Directory: dir.Stats(), Sync: &s}
		})
	}
}

// PeekWord implements Backend: the home engine's sync table is
// authoritative for engine-held words.
func (b *SynCronBackend) PeekWord(addr uint64) (uint64, bool) {
	return b.m.Syncs[memsys.HomeNode(addr)].Peek(addr)
}

// CheckQuiescence implements Backend.
func (b *SynCronBackend) CheckQuiescence() error { return quiesced(b.m.Syncs) }

// --- dsm: coherence-free disaggregated shared memory ------------------------

// DSMBackend wires a disaggregated machine: no directory, no cached data,
// a memory agent per node serving remote reads/writes/atomics
// (internal/dsm). CPUs run in remote-memory mode. Each agent's atomics run
// on its own directory-less core.AMU, which stays out of m.AMUs: that
// list is the amo backend's, and chaos perturbs every unit on it.
type DSMBackend struct {
	m *Machine
}

// Wire implements Backend.
func (b *DSMBackend) Wire(m *Machine) error {
	b.m = m
	cfg := m.Cfg
	for n := 0; n < cfg.Nodes(); n++ {
		agent := dsm.New(m.EngFor(n), m.Net, m.Mem, dsm.Params{
			Node:         n,
			RemoteCycles: cfg.DSMRemoteCycles,
		})
		m.DSMs = append(m.DSMs, agent)
		m.Net.RegisterHub(n, agent.Handle)
	}
	return nil
}

// CPUParams implements Backend: every access becomes a remote operation.
func (b *DSMBackend) CPUParams(p proc.Params) proc.Params {
	p.RemoteMemory = true
	return p
}

// RegisterNodeMetrics implements Backend.
func (b *DSMBackend) RegisterNodeMetrics(m *Machine) {
	for n := range m.DSMs {
		node, agent := n, m.DSMs[n]
		m.reg.RegisterNode(func() metrics.NodeMetrics {
			s := agent.Stats()
			return metrics.NodeMetrics{Node: node, DSM: &s}
		})
	}
}

// PeekWord implements Backend: home memory is always authoritative — the
// agent's atomic unit has no operand cache, so it holds no word between
// operations.
func (b *DSMBackend) PeekWord(addr uint64) (uint64, bool) { return 0, false }

// CheckQuiescence implements Backend.
func (b *DSMBackend) CheckQuiescence() error { return quiesced(b.m.DSMs) }

// quiesced returns the first quiescence error among a backend's per-node
// memory-side units: a queued or in-flight request at quiescence leaked.
func quiesced[U interface{ Quiesced() error }](units []U) error {
	for _, u := range units {
		if err := u.Quiesced(); err != nil {
			return err
		}
	}
	return nil
}
