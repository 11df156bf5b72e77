package bench

import (
	"amosim"
	"amosim/internal/sweep"
)

// snapshotCounts are the per-layer counts a measured-window snapshot
// yields, summed over CPUs and nodes. Cycle counters are simulated cycles.
var snapshotCounts = []string{
	"net.messages", "net.local_messages", "net.hops", "net.byte_hops", "net.transit_cycles",
	"dir.interventions", "dir.invalidations", "dir.word_updates", "dir.occupancy_cycles",
	"mem.reads", "mem.writes",
	"cache.hits", "cache.misses", "cache.evictions",
	"amu.ops", "amu.cache_hits", "amu.fine_puts", "amu.recalls", "amu.occupancy_cycles",
	"cpu.sc_failures", "cpu.amsg_nacks", "cpu.amsg_retries", "cpu.amsg_served",
	"cpu.compute_cycles", "cpu.stall_cycles", "cpu.spin_cycles",
	"sync.ops", "sync.table_hits", "sync.overflows", "sync.forwards",
	"dsm.remote_loads", "dsm.remote_stores", "dsm.remote_atomics",
}

// addSnapshot adds one measured window's counts into c.
func addSnapshot(c map[string]Metric, s amosim.Snapshot) {
	add := func(name string, v uint64) {
		c[name] = Metric{c[name].Value + float64(v), "count"}
	}
	add("net.messages", s.Network.Messages)
	add("net.local_messages", s.Network.LocalMessages)
	add("net.hops", s.Network.Hops)
	add("net.byte_hops", s.Network.ByteHops)
	add("net.transit_cycles", s.Network.TransitCycles)
	add("mem.reads", s.Memory.Reads)
	add("mem.writes", s.Memory.Writes)
	for _, cpu := range s.CPUs {
		add("cache.hits", cpu.Cache.Hits)
		add("cache.misses", cpu.Cache.Misses)
		add("cache.evictions", cpu.Cache.Evictions)
		add("cpu.sc_failures", cpu.Counters.SCFailures)
		add("cpu.amsg_nacks", cpu.Counters.AmsgNacks)
		add("cpu.amsg_retries", cpu.Counters.AmsgRetries)
		add("cpu.amsg_served", cpu.Counters.AmsgServed)
		add("cpu.compute_cycles", cpu.Cycles.Compute)
		add("cpu.stall_cycles", cpu.Cycles.MemoryStall)
		add("cpu.spin_cycles", cpu.Cycles.SpinIdle)
	}
	for _, n := range s.Nodes {
		add("dir.interventions", n.Directory.Interventions)
		add("dir.invalidations", n.Directory.Invalidations)
		add("dir.word_updates", n.Directory.WordUpdates)
		add("dir.occupancy_cycles", n.Directory.OccupancyCycles)
		add("amu.ops", n.AMU.Ops)
		add("amu.cache_hits", n.AMU.CacheHits)
		add("amu.fine_puts", n.AMU.FinePuts)
		add("amu.recalls", n.AMU.Recalls)
		add("amu.occupancy_cycles", n.AMU.OccupancyCycles)
		if n.Sync != nil {
			add("sync.ops", n.Sync.Ops)
			add("sync.table_hits", n.Sync.TableHits)
			add("sync.overflows", n.Sync.Overflows)
			add("sync.forwards", n.Sync.Forwards)
		}
		if n.DSM != nil {
			add("dsm.remote_loads", n.DSM.RemoteLoads)
			add("dsm.remote_stores", n.DSM.RemoteStores)
			add("dsm.remote_atomics", n.DSM.RemoteAtomics)
		}
	}
}

// finishCounts fills in the snapshot counts no window reached as zero and
// derives the hit ratios.
func finishCounts(c map[string]Metric) {
	for _, name := range snapshotCounts {
		if _, ok := c[name]; !ok {
			c[name] = Metric{0, "count"}
		}
	}
	ratio := func(num, den float64) Metric {
		if den == 0 {
			return Metric{0, "ratio"}
		}
		return Metric{num / den, "ratio"}
	}
	c["cache.hit_ratio"] = ratio(c["cache.hits"].Value, c["cache.hits"].Value+c["cache.misses"].Value)
	c["amu.hit_ratio"] = ratio(c["amu.cache_hits"].Value, c["amu.ops"].Value)
	c["sync.hit_ratio"] = ratio(c["sync.table_hits"].Value, c["sync.ops"].Value)
}

// addSweep records a round's sweep cache counts.
func addSweep(c map[string]Metric, st sweep.CacheStats) {
	c["sweep.points"] = Metric{float64(st.Hits + st.Misses), "count"}
	c["sweep.cache_hits"] = Metric{float64(st.Hits), "count"}
	c["sweep.cache_misses"] = Metric{float64(st.Misses), "count"}
}
