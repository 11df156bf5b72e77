package machine

import (
	"amosim/internal/config"
	"amosim/internal/core"
	"amosim/internal/directory"
	"amosim/internal/dsm"
	"amosim/internal/memsys"
	"amosim/internal/metrics"
	"amosim/internal/network"
	"amosim/internal/syncron"
)

// wire builds every node's memory system for cfg.Backend, in node order,
// and registers the node's hub handler. It runs after the engine, network
// and memory exist and before any CPU. Each backend fills its own slices:
//
//   - amo, the paper's machine: an MSI directory and an active memory unit
//     on every node (Dirs, AMUs);
//   - syncron: the directory, with per-memory-partition sync engines in
//     place of the AMU (Dirs, Syncs); each partition is a core.AMU whose
//     operand cache is a bounded sync table, behind local-engine-first
//     request routing;
//   - dsm: no directory and no cached data, a memory agent per node that
//     serves remote loads, stores and atomics (DSMs). Each agent's atomics
//     run on its own directory-less core.AMU, which stays out of AMUs: that
//     list is the amo backend's, and chaos perturbs every unit on it.
func (m *Machine) wire() {
	cfg := m.Cfg
	for n := 0; n < cfg.Nodes(); n++ {
		eng := m.Eng.ForNode(n)
		if cfg.Backend == config.BackendDSM {
			agent := dsm.New(eng, m.Net, m.Mem, dsm.Params{Node: n, RemoteCycles: cfg.DSMRemoteCycles})
			m.DSMs = append(m.DSMs, agent)
			m.Net.RegisterHub(n, agent.Handle)
			continue
		}
		dir := directory.New(eng, m.Net, m.Mem, directory.Params{
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
		var unit network.Handler
		if cfg.Backend == config.BackendSynCron {
			se := syncron.New(eng, m.Net, m.Mem, dir, syncron.Params{
				Node:          n,
				Partitions:    cfg.SyncPartitions,
				TableEntries:  cfg.SyncTableEntries,
				OpCycles:      cfg.AMUOpCycles,
				QueueCycles:   cfg.AMUQueueCycles,
				DRAMCycles:    cfg.DRAMCycles,
				InspectCycles: cfg.SyncInspectCycles,
				BlockBytes:    cfg.BlockBytes,
			})
			dir.SetAMU(se)
			m.Syncs = append(m.Syncs, se)
			unit = se.Handle
		} else {
			amu := core.New(eng, m.Net, m.Mem, dir, core.Params{
				Node:        n,
				CacheWords:  cfg.AMUCacheWords,
				OpCycles:    cfg.AMUOpCycles,
				QueueCycles: cfg.AMUQueueCycles,
				DRAMCycles:  cfg.DRAMCycles,
				BlockBytes:  cfg.BlockBytes,
			})
			dir.SetAMU(amu)
			m.AMUs = append(m.AMUs, amu)
			unit = amu.Handle
		}
		m.Net.RegisterHub(n, m.hubHandler(dir, unit))
	}
}

// nodeMetrics is node n's section of a snapshot: the directory and the
// backend's own memory-side unit. The Sync and DSM sections stay nil on
// the amo backend, so its snapshots marshal without them.
func (m *Machine) nodeMetrics(n int) metrics.NodeMetrics {
	switch {
	case m.DSMs != nil:
		s := m.DSMs[n].Stats()
		return metrics.NodeMetrics{Node: n, DSM: &s}
	case m.Syncs != nil:
		s := m.Syncs[n].Stats()
		return metrics.NodeMetrics{Node: n, Directory: m.Dirs[n].Stats(), Sync: &s}
	}
	return metrics.NodeMetrics{Node: n, Directory: m.Dirs[n].Stats(), AMU: m.AMUs[n].Stats()}
}

// peekWord reports the value of the word at addr held by its home
// memory-side unit, which is authoritative inside the release-consistency
// window: the AMU's operand cache or the sync engine's table. A dsm
// agent's atomic unit has no operand cache, so home memory is always
// authoritative there.
func (m *Machine) peekWord(addr uint64) (uint64, bool) {
	home := memsys.HomeNode(addr)
	switch {
	case m.AMUs != nil:
		return m.AMUs[home].Peek(addr)
	case m.Syncs != nil:
		return m.Syncs[home].Peek(addr)
	}
	return 0, false
}

// checkQuiescence returns the first quiescence error among the per-node
// memory-side units: a queued or in-flight request at quiescence leaked.
// Only one of the three slices is non-empty on any machine.
func (m *Machine) checkQuiescence() error {
	if err := quiesced(m.AMUs); err != nil {
		return err
	}
	if err := quiesced(m.Syncs); err != nil {
		return err
	}
	return quiesced(m.DSMs)
}

func quiesced[U interface{ Quiesced() error }](units []U) error {
	for _, u := range units {
		if err := u.Quiesced(); err != nil {
			return err
		}
	}
	return nil
}
