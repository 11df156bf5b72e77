package syncprim

import (
	"fmt"

	"amosim/internal/config"
	"amosim/internal/machine"
	"amosim/internal/proc"
	"amosim/internal/topology"
)

// This file implements the post-paper Combining mechanism class: NUMA-
// clustered hierarchical synchronization in the style of HSynch/cohort
// locks and flat-combining barriers. The cluster size is derived from the
// machine topology — one torus row (or one fat-tree router group) of nodes
// forms a cluster — so the hierarchy matches the physical locality the
// interconnect provides. Built entirely from plain processor-side atomics,
// it is the modern software competitor the 2004 AMO paper predates.

// CombiningClusterSize derives the cluster size (in CPUs) the combining
// primitives use for the given machine configuration: one torus row of
// nodes on a torus, one router group (RouterRadix nodes) on a fat tree,
// clamped to [1, Processors].
func CombiningClusterSize(cfg config.Config) int {
	nodesPerCluster := cfg.RouterRadix
	if cfg.Interconnect == "torus" {
		if t, err := topology.NewTorus2D(cfg.Nodes()); err == nil {
			nodesPerCluster, _ = t.Dims()
		}
	}
	if nodesPerCluster < 1 {
		nodesPerCluster = 1
	}
	cluster := nodesPerCluster * cfg.ProcsPerNode
	if cluster < 1 {
		cluster = 1
	}
	if cluster > cfg.Processors {
		cluster = cfg.Processors
	}
	return cluster
}

// effectiveMechanism maps the Combining class onto the primitive it builds
// its hierarchy from (plain processor-side atomics). Other mechanisms pass
// through, so the hierarchical algorithms can also be instantiated over
// AMO, MAO, etc. for ablations.
func effectiveMechanism(mech Mechanism) Mechanism {
	if mech == Combining {
		return Atomic
	}
	return mech
}

// clampCluster normalizes a requested cluster size (0 = derive from the
// machine configuration) to [1, procs].
func clampCluster(m *machine.Machine, procs, cluster int) int {
	if cluster <= 0 {
		cluster = CombiningClusterSize(m.Cfg)
	}
	if cluster > procs {
		cluster = procs
	}
	if cluster < 1 {
		cluster = 1
	}
	return cluster
}

// CombiningBarrier is a hierarchical flat-combining barrier: each cluster's
// first CPU acts as the combiner, collecting its members' per-CPU arrival
// words (plain cached stores, each on the member's own node), performing a
// single fetch-add on the root counter on the clusters' behalf, and fanning
// the release back out through one per-cluster flag. The root therefore
// sees one arrival per cluster instead of one per CPU.
//
// All counters are monotonic (episode-numbered), so the barrier is reusable
// without reinitialization.
type CombiningBarrier struct {
	mech      Mechanism // effective primitive mechanism
	procs     int
	cluster   int
	nclusters int

	arrive []uint64 // per-CPU arrival word, homed on the CPU's node
	cflag  []uint64 // per-cluster release flag, homed on the cluster's first node
	root   uint64   // root combining counter (home node)
	rootFl uint64   // root release flag, one block above root

	episodes []uint64 // per-CPU completed-episode count
}

// NewCombiningBarrier builds a combining barrier for procs participants
// with the root homed on the given node. cluster is the cluster size in
// CPUs; 0 derives it from the machine topology via CombiningClusterSize.
func NewCombiningBarrier(m *machine.Machine, mech Mechanism, procs, home, cluster int) *CombiningBarrier {
	if procs <= 0 {
		panic(fmt.Sprintf("syncprim: combining barrier needs positive procs, got %d", procs))
	}
	mech = effectiveMechanism(mech)
	if mech == ActMsg {
		RegisterHandlers(m)
	}
	cluster = clampCluster(m, procs, cluster)
	bb := m.Cfg.BlockBytes
	b := &CombiningBarrier{
		mech:      mech,
		procs:     procs,
		cluster:   cluster,
		nclusters: (procs + cluster - 1) / cluster,
		episodes:  make([]uint64, m.Cfg.Processors),
	}
	for cpu := 0; cpu < procs; cpu++ {
		b.arrive = append(b.arrive, m.AllocWord(cpu/m.Cfg.ProcsPerNode))
	}
	for k := 0; k < b.nclusters; k++ {
		first := k * cluster
		b.cflag = append(b.cflag, m.AllocWord(first/m.Cfg.ProcsPerNode))
	}
	base := m.Mem.Alloc(home, 2*bb, bb)
	b.root = base
	b.rootFl = base + uint64(bb)
	return b
}

// ClusterSize returns the cluster size the barrier was built with.
func (b *CombiningBarrier) ClusterSize() int { return b.cluster }

// Clusters returns the number of clusters.
func (b *CombiningBarrier) Clusters() int { return b.nclusters }

// Wait blocks the calling CPU until all participants have arrived at this
// episode of the barrier.
func (b *CombiningBarrier) Wait(c *proc.CPU) {
	me := c.ID()
	b.episodes[me]++
	e := b.episodes[me]
	k := me / b.cluster
	first := k * b.cluster

	if me != first {
		// Member: post the arrival on our own node and wait for the
		// cluster combiner's release.
		c.Store(b.arrive[me], e)
		c.SpinUntil(b.cflag[k], proc.AtLeast(e))
		return
	}

	// Combiner: collect the cluster's members, then arrive at the root on
	// the whole cluster's behalf.
	last := first + b.cluster
	if last > b.procs {
		last = b.procs
	}
	for j := first + 1; j < last; j++ {
		c.SpinUntil(b.arrive[j], proc.AtLeast(e))
	}

	target := e * uint64(b.nclusters)
	switch b.mech {
	case AMO:
		// Naive AMO coding at the root: the amo.inc carries the test
		// value, and combiners spin on the root itself.
		if old := c.AMOInc(b.root, target); old != target-1 {
			c.SpinUntil(b.root, proc.AtLeast(target))
		}
	case ActMsg:
		c.ActiveMessageCall(HandlerBarrierInc, b.root, target)
		c.SpinUntil(b.rootFl, proc.AtLeast(target))
	default:
		if old := FetchAdd(c, b.mech, b.root, 1); old == target-1 {
			c.Store(b.rootFl, target)
		} else {
			c.SpinUntil(b.rootFl, proc.AtLeast(target))
		}
	}

	// Fan the release back out to this cluster's members.
	if b.mech == AMO {
		c.AMO(amoOpSwap, b.cflag[k], e, 0, amoUpdateAlways)
	} else {
		c.Store(b.cflag[k], e)
	}
}

// Baton values passed through a waiter's locked word by CombiningLock.
// batonHold must be zero: the AMO wake path reuses the MCS "clear the
// flag" update, and zero is also what a fresh global MCS grant stores.
const (
	batonHold    = 0 // lock handed over locally; global lock still held
	batonWait    = 1 // initial state: spin until the baton arrives
	batonAcquire = 2 // you are the cluster head; acquire the global lock
)

// defaultCombinePasses bounds how many times the lock is handed within one
// cluster before it must be released globally (HSynch's h parameter).
const defaultCombinePasses = 8

// CombiningLock is a cohort lock in the style of HSynch / Dice-Marathe-
// Shavit lock cohorting: each cluster keeps a local MCS queue, and cluster
// heads compete on a central MCS lock whose queue nodes are per-cluster.
// While waiters remain in the holder's cluster (and the pass budget is not
// exhausted), release hands the lock locally with a baton, keeping the
// lock — and the cache lines the critical section touches — inside one
// cluster for up to passLimit consecutive critical sections.
type CombiningLock struct {
	mech      Mechanism // effective primitive mechanism
	procs     int
	cluster   int
	nclusters int
	passLimit uint64

	ltail  []uint64 // per-cluster local tail: waiter CPU id + 1, 0 = empty
	locked []uint64 // per-CPU baton word
	next   []uint64 // per-CPU successor word

	gtail   uint64   // global tail: cluster id + 1, 0 = free
	glocked []uint64 // per-cluster global-queue flag word
	gnext   []uint64 // per-cluster global-queue successor word
	passes  []uint64 // per-cluster consecutive local-handoff count
}

// NewCombiningLock allocates cohort-lock state for up to procs waiters with
// the global tail on the home node. cluster is the cluster size in CPUs
// (0 = derive from the machine topology); passLimit bounds consecutive
// local handoffs (0 = default).
func NewCombiningLock(m *machine.Machine, mech Mechanism, procs, home, cluster, passLimit int) *CombiningLock {
	if procs <= 0 {
		panic(fmt.Sprintf("syncprim: combining lock needs positive procs, got %d", procs))
	}
	mech = effectiveMechanism(mech)
	if mech == ActMsg {
		RegisterHandlers(m)
		registerMCSHandlers(m)
	}
	cluster = clampCluster(m, procs, cluster)
	if passLimit <= 0 {
		passLimit = defaultCombinePasses
	}
	l := &CombiningLock{
		mech:      mech,
		procs:     procs,
		cluster:   cluster,
		nclusters: (procs + cluster - 1) / cluster,
		passLimit: uint64(passLimit),
		gtail:     m.AllocWord(home),
	}
	for cpu := 0; cpu < procs; cpu++ {
		node := cpu / m.Cfg.ProcsPerNode
		l.locked = append(l.locked, m.AllocWord(node))
		l.next = append(l.next, m.AllocWord(node))
	}
	for k := 0; k < l.nclusters; k++ {
		node := k * cluster / m.Cfg.ProcsPerNode
		l.ltail = append(l.ltail, m.AllocWord(node))
		l.glocked = append(l.glocked, m.AllocWord(node))
		l.gnext = append(l.gnext, m.AllocWord(node))
		l.passes = append(l.passes, m.AllocWord(node))
	}
	return l
}

// ClusterSize returns the cluster size the lock was built with.
func (l *CombiningLock) ClusterSize() int { return l.cluster }

// wake hands a baton (or clears a global-queue flag) in the target CPU's
// cache: an in-place AMO update when the mechanism is AMO, a plain store
// otherwise.
func (l *CombiningLock) wake(c *proc.CPU, addr, val uint64) {
	if l.mech == AMO {
		c.AMO(amoOpSwap, addr, val, 0, amoUpdateAlways)
		return
	}
	c.Store(addr, val)
}

// Acquire takes the lock.
func (l *CombiningLock) Acquire(c *proc.CPU) {
	me := uint64(c.ID())
	k := int(me) / l.cluster
	c.Store(l.next[me], 0)
	c.Store(l.locked[me], batonWait)
	pred := mechSwap(c, l.mech, l.ltail[k], me+1)
	if pred != 0 {
		// Queue behind the local predecessor and spin for the baton.
		c.Store(l.next[pred-1], me+1)
		v := c.SpinUntil(l.locked[me], proc.NotEqual(batonWait))
		if v == batonHold {
			return // handed over locally; the global lock is still ours
		}
		// batonAcquire: we are now the cluster head.
	}
	l.globalAcquire(c, k)
}

// globalAcquire takes the central MCS lock on behalf of cluster k. Only
// one CPU per cluster — the local head, after the previous head fully
// released — ever runs this, so the per-cluster queue node is single-writer.
func (l *CombiningLock) globalAcquire(c *proc.CPU, k int) {
	kk := uint64(k)
	c.Store(l.gnext[kk], 0)
	c.Store(l.glocked[kk], 1)
	pred := mechSwap(c, l.mech, l.gtail, kk+1)
	if pred == 0 {
		return
	}
	c.Store(l.gnext[pred-1], kk+1)
	c.SpinUntil(l.glocked[kk], proc.Equal(0))
}

// globalRelease hands the central lock to the next waiting cluster, if any.
func (l *CombiningLock) globalRelease(c *proc.CPU, k int) {
	kk := uint64(k)
	succ := c.Load(l.gnext[kk])
	if succ == 0 {
		if mechCAS(c, l.mech, l.gtail, kk+1, 0) {
			return
		}
		succ = c.SpinUntil(l.gnext[kk], proc.NotEqual(0))
	}
	l.wake(c, l.glocked[succ-1], 0)
}

// Release hands the lock to a local successor (baton pass) while the pass
// budget lasts, otherwise releases the central lock and sends the next
// local waiter — or the next cluster — through the global path.
func (l *CombiningLock) Release(c *proc.CPU) {
	me := uint64(c.ID())
	k := int(me) / l.cluster
	succ := c.Load(l.next[me])
	if succ != 0 {
		// passes is only touched while holding the lock, so plain
		// load/store is race-free.
		p := c.Load(l.passes[k])
		if p+1 < l.passLimit {
			c.Store(l.passes[k], p+1)
			l.wake(c, l.locked[succ-1], batonHold)
			return
		}
	}
	// Pass budget exhausted or no known local successor: release the
	// global lock first, so the cluster's global queue node is free before
	// any successor (woken below, or arriving after the tail reset) can
	// reuse it.
	c.Store(l.passes[k], 0)
	l.globalRelease(c, k)
	if succ == 0 {
		if mechCAS(c, l.mech, l.ltail[k], me+1, 0) {
			return
		}
		// A local waiter is between its tail swap and its link store.
		succ = c.SpinUntil(l.next[me], proc.NotEqual(0))
	}
	l.wake(c, l.locked[succ-1], batonAcquire)
}
