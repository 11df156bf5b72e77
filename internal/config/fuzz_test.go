package config_test

import (
	"errors"
	"testing"

	"amosim/internal/config"
	"amosim/internal/machine"
	"amosim/internal/proc"
	"amosim/internal/syncprim"
)

// fuzzMaxProcs bounds the machines FuzzConfig runs, so each exec stays fast.
const fuzzMaxProcs = 32

// addSeed adds c, with the mechanism index mech, to f's seed corpus.
func addSeed(f *testing.F, mech uint8, c config.Config) {
	f.Add(mech,
		c.Processors, c.ProcsPerNode, c.BlockBytes, c.CacheWays, c.CacheSets,
		c.RouterRadix, c.Interconnect, c.AMUCacheWords, c.ActMsgQueueDepth,
		c.MinPacketBytes, c.HeaderBytes, c.SyncPartitions, c.SyncTableEntries,
		int(c.Backend), c.Engine, c.Shards,
		c.L1HitCycles, c.L2HitCycles, c.BusCycles, c.DirCycles, c.DRAMCycles,
		c.HopCycles, c.InjectCycles, c.AMUOpCycles, c.AMUQueueCycles,
		c.ActMsgInvokeCycles, c.ActMsgHandlerCycles, c.ActMsgTimeoutCycles,
		c.IssueCycles, c.SpinCheckCycles, c.SyncInspectCycles, c.DSMRemoteCycles)
}

// FuzzConfig holds Validate to its contract as the gate in front of machine
// construction. It varies the fields TestValidateRejections mutates: CPU
// and node counts, block and cache geometry, interconnect, AMU words, queue
// depth, packet sizes, sync tables, backend, kernel, shards and every
// ...Cycles field. Each input must either fail Validate with a
// *config.FieldError or build a machine that runs a 2-episode barrier of
// the fuzzed mechanism to completion, with no panic and no other error.
// Machines above fuzzMaxProcs CPUs are skipped. The corpus is seeded from
// TestValidateRejections' rows here and, in testdata, from the default
// config on each backend and kernel.
func FuzzConfig(f *testing.F) {
	for i, c := range config.RejectedConfigs() {
		addSeed(f, uint8(i), c)
	}
	f.Fuzz(func(t *testing.T, mech uint8,
		procs, perNode, blockBytes, cacheWays, cacheSets, radix int, interconnect string,
		amuWords, queueDepth, minPacket, header, syncParts, syncEntries, backend int,
		engine string, shards int,
		l1Hit, l2Hit, bus, dir, dram, hop, inject, amuOp, amuQueue,
		invoke, handler, timeout, issue, spinCheck, inspect, remote uint64) {
		cfg := config.Config{
			Backend:             config.Backend(backend),
			Processors:          procs,
			ProcsPerNode:        perNode,
			L1HitCycles:         l1Hit,
			L2HitCycles:         l2Hit,
			BlockBytes:          blockBytes,
			CacheWays:           cacheWays,
			CacheSets:           cacheSets,
			BusCycles:           bus,
			DirCycles:           dir,
			DRAMCycles:          dram,
			HopCycles:           hop,
			InjectCycles:        inject,
			RouterRadix:         radix,
			Interconnect:        interconnect,
			Engine:              engine,
			Shards:              shards,
			MinPacketBytes:      minPacket,
			HeaderBytes:         header,
			AMUCacheWords:       amuWords,
			AMUOpCycles:         amuOp,
			AMUQueueCycles:      amuQueue,
			ActMsgInvokeCycles:  invoke,
			ActMsgHandlerCycles: handler,
			ActMsgQueueDepth:    queueDepth,
			ActMsgTimeoutCycles: timeout,
			IssueCycles:         issue,
			SpinCheckCycles:     spinCheck,
			SyncPartitions:      syncParts,
			SyncTableEntries:    syncEntries,
			SyncInspectCycles:   inspect,
			DSMRemoteCycles:     remote,
		}
		if err := cfg.Validate(); err != nil {
			var fe *config.FieldError
			if !errors.As(err, &fe) {
				t.Fatalf("Validate() = %T (%v), want *config.FieldError", err, err)
			}
			return
		}
		if cfg.Processors > fuzzMaxProcs {
			t.Skipf("%d CPUs: above the %d this target runs", cfg.Processors, fuzzMaxProcs)
		}
		m, err := machine.New(cfg)
		if err != nil {
			t.Fatalf("machine.New after Validate passed: %v", err)
		}
		defer m.Shutdown()
		mc := syncprim.AllMechanisms[int(mech)%len(syncprim.AllMechanisms)]
		var wait func(c *proc.CPU)
		if mc == syncprim.Combining {
			wait = syncprim.NewCombiningBarrier(m, mc, cfg.Processors, 0, 0).Wait
		} else {
			wait = syncprim.NewBarrier(m, mc, cfg.Processors, 0).Wait
		}
		m.OnAllCPUs(func(c *proc.CPU) {
			wait(c)
			wait(c)
		})
		if _, err := m.Run(); err != nil {
			t.Fatalf("%v barrier on %+v: %v", mc, cfg, err)
		}
	})
}
