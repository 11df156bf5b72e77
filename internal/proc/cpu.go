// Package proc models a simulated processor: an in-order core with a
// private write-back cache, a link register for LL/SC, processor-side
// atomic instructions, uncached accesses, AMO/MAO issue, and an active
// message endpoint with a bounded handler queue.
//
// Each CPU executes one program as a sim.Process. Memory operations block
// the program for their modeled latency; cache-state transitions triggered
// by external protocol messages (invalidations, interventions, word
// updates) are applied in event context at delivery time, so the cache is
// always coherent with the directory's view regardless of where the program
// happens to be suspended.
//
// A spin loop (SpinUntil) runs in event context from its first load to its
// exit, and a parked serve loop (ServeUntil) re-checks there. Each step
// replays, event by event, what the program's own loop would do (the
// load's issue and hit latencies, the miss's GetShared and its reply wait,
// the spin check, the predicate) on the same cycle buckets; a parked loop
// is woken by every line event, and most wakes change nothing it waits
// for. The program runs again only when it must act: the predicate holds,
// or active messages are queued. Event order, event counts and every
// simulated figure are those of a program that loads and re-checks itself.
package proc

import (
	"fmt"

	"amosim/internal/cache"
	"amosim/internal/core"
	"amosim/internal/directory"
	"amosim/internal/memsys"
	"amosim/internal/metrics"
	"amosim/internal/network"
	"amosim/internal/sim"
)

// Params carries the per-CPU timing knobs.
type Params struct {
	ID           int
	Node         int
	ProcsPerNode int
	BlockBytes   int

	L1HitCycles     uint64
	IssueCycles     uint64
	SpinCheckCycles uint64
	AtomicOpCycles  uint64

	ActMsgInvokeCycles  uint64
	ActMsgHandlerCycles uint64
	ActMsgQueueDepth    int
	ActMsgTimeoutCycles uint64

	// RemoteMemory (BackendDSM) disables coherent caching: loads and
	// stores run uncached against the home node, LL/SC degenerates to
	// remote load + remote compare-and-swap, and processor-side atomics
	// become remote atomics. The private cache stays empty, so spin loops
	// fall through to remote polling instead of parking on line events.
	RemoteMemory bool
	// LocalSyncHub (BackendSynCron) routes AMO/MAO requests to the CPU's
	// own node hub first; the local sync engine inspects them and forwards
	// remote-homed requests to the home partition (hierarchical
	// coordination). Replies still arrive directly from the executing hub.
	LocalSyncHub bool
}

// Pred is a spin loop's exit condition on the loaded word. It is a value
// rather than a closure, so a loop parked in event context keeps it in the
// CPU without a heap allocation at each call site.
type Pred struct {
	op predOp
	x  uint64
}

type predOp uint8

const (
	predAtLeast predOp = iota
	predEqual
	predNotEqual
)

// AtLeast holds for words v >= x.
func AtLeast(x uint64) Pred { return Pred{predAtLeast, x} }

// Equal holds for words v == x.
func Equal(x uint64) Pred { return Pred{predEqual, x} }

// NotEqual holds for words v != x.
func NotEqual(x uint64) Pred { return Pred{predNotEqual, x} }

// holds reports whether the word v satisfies the predicate.
func (p Pred) holds(v uint64) bool {
	switch p.op {
	case predEqual:
		return v == p.x
	case predNotEqual:
		return v != p.x
	default:
		return v >= p.x
	}
}

// Handler is an active-message handler body. It runs in the context of the
// home CPU's process and may perform memory operations on it. It returns
// the value carried back to the sender.
type Handler func(c *CPU, addr, arg uint64) uint64

// opKind classifies the in-flight cache transaction.
type opKind int

const (
	opNone opKind = iota
	opLoad
	opLoadLinked
	opStore
	opStoreConditional
	opAtomicRMW
)

// pendingOp is the CPU's single outstanding cache transaction.
type pendingOp struct {
	kind   opKind
	addr   uint64
	val    uint64 // store value / RMW operand
	aux    uint64 // RMW second operand (CAS expected value)
	rmw    core.Op
	result uint64
	ok     bool // SC success
	filled bool // reply processed
}

// CPU is one simulated processor.
type CPU struct {
	p   Params
	eng sim.Engine
	net *network.Network
	c   *cache.Cache

	proc     *sim.Process
	attached bool

	// pending is the single outstanding cache transaction, inlined so
	// issuing an operation never allocates; pendingLive marks it in flight.
	pending     pendingOp
	pendingLive bool
	pendingWake func()
	// registerWake is the prebound Await callback (stores the process's
	// wake function into pendingWake without a per-park closure).
	registerWake func(wake func())
	wakeOnAmsg   bool

	// replyQ is a head-indexed FIFO: popping advances the head and the
	// backing array is reused once drained, so steady-state message
	// traffic never grows it. It is a slice rather than a sim.FIFO because
	// takeReply also removes replies by kind from the middle. It keeps
	// only what the waits read of a reply: its kind and value.
	replyQ    []reply
	replyHead int

	linkAddr  uint64
	linkValid bool
	// linkVal is the value observed by a remote-memory LoadLinked; the
	// matching StoreConditional compares-and-swaps against it (cached-mode
	// LL/SC never uses it).
	linkVal uint64

	// wait is the spin or serve loop running as line-wait steps, if any.
	// Once parked, any line being invalidated or updated, an active
	// message arriving, or Poke wakes it; a spin's reload waits for the
	// cache reply instead.
	wait lineWait

	// amsgQ copies each accepted active message: the delivered record
	// is gone by the time a handler serves it.
	amsgQ    sim.FIFO[network.Msg]
	handlers map[int]Handler

	stats metrics.CPUStats

	// Cycle attribution. Simulated time only passes while the program is
	// parked (in Sleep, Await or a line wait, whose steps run in event
	// context), so every wait is bracketed by beginWait/endWait and
	// charged to exactly one bucket of cyc; the in-flight wait (if any) is
	// finalized read-only by Metrics. The invariant
	// Compute+MemoryStall+SpinIdle == Total is therefore exact at every
	// snapshot instant.
	cyc        metrics.CycleBreakdown // Total stays 0; computed at read time
	waitBucket *uint64
	waitFrom   sim.Time
	startAt    sim.Time
	endAt      sim.Time
	started    bool
	ended      bool
}

// New creates a CPU with its private cache and registers its network
// endpoint.
func New(eng sim.Engine, net *network.Network, cch *cache.Cache, p Params) *CPU {
	c := &CPU{
		p:        p,
		eng:      eng,
		net:      net,
		c:        cch,
		handlers: make(map[int]Handler),
	}
	c.registerWake = func(wake func()) { c.pendingWake = wake }
	net.RegisterCPU(p.ID, c.deliver)
	return c
}

// ID returns the global CPU id.
func (c *CPU) ID() int { return c.p.ID }

// Node returns the CPU's node id.
func (c *CPU) Node() int { return c.p.Node }

// Cache exposes the private cache for tests and stats.
func (c *CPU) Cache() *cache.Cache { return c.c }

// Stats returns the CPU's named event counters: SC failures,
// active-message NACKs received, retransmissions sent, handlers served.
func (c *CPU) Stats() metrics.CPUStats { return c.stats }

// Metrics returns the CPU's full per-component snapshot, finalizing any
// in-flight wait into its bucket without mutating the accumulators. Safe
// to call at any simulated instant, including after engine shutdown.
func (c *CPU) Metrics() metrics.CPUMetrics {
	now := c.eng.Now()
	cyc := c.cyc
	if c.waitBucket != nil {
		elapsed := uint64(now - c.waitFrom)
		switch c.waitBucket {
		case &c.cyc.Compute:
			cyc.Compute += elapsed
		case &c.cyc.MemoryStall:
			cyc.MemoryStall += elapsed
		case &c.cyc.SpinIdle:
			cyc.SpinIdle += elapsed
		}
	}
	switch {
	case !c.started:
		// No program yet: everything stays zero.
	case c.ended:
		cyc.Total = uint64(c.endAt - c.startAt)
	default:
		cyc.Total = uint64(now - c.startAt)
	}
	return metrics.CPUMetrics{
		ID:       c.p.ID,
		Node:     c.p.Node,
		Counters: c.stats,
		Cache:    c.c.Stats(),
		Cycles:   cyc,
	}
}

// --- cycle-attribution plumbing ---------------------------------------------

// beginWait marks the start of a simulated-time wait charged to bucket
// (one of &c.cyc.Compute, &c.cyc.MemoryStall, &c.cyc.SpinIdle).
func (c *CPU) beginWait(bucket *uint64) {
	c.waitBucket = bucket
	c.waitFrom = c.eng.Now()
}

// endWait closes the wait opened by beginWait and accrues its duration.
func (c *CPU) endWait() {
	*c.waitBucket += uint64(c.eng.Now() - c.waitFrom)
	c.waitBucket = nil
}

// sleep charges cycles of simulated time to bucket. Zero-cycle sleeps
// still yield to same-instant events, exactly like a bare proc.Sleep.
func (c *CPU) sleep(bucket *uint64, cycles uint64) {
	c.beginWait(bucket)
	c.proc.Sleep(sim.Time(cycles))
	c.endWait()
}

// RegisterHandler installs the active-message handler with the given id.
func (c *CPU) RegisterHandler(id int, h Handler) {
	if _, dup := c.handlers[id]; dup {
		panic(fmt.Sprintf("proc: handler %d registered twice on cpu %d", id, c.p.ID))
	}
	c.handlers[id] = h
}

// HasHandler reports whether a handler with the given id is installed.
func (c *CPU) HasHandler(id int) bool {
	_, ok := c.handlers[id]
	return ok
}

// Run attaches a program to the CPU and starts it after delay cycles. A CPU
// runs one program at a time; once a program has finished (its machine Run
// returned), a further phase may be attached and the CPU's measured window
// extends from the first program's start to the latest program's end, so
// cycle attribution stays conserved across contiguous phases.
func (c *CPU) Run(delay sim.Time, program func(c *CPU)) {
	if c.attached {
		panic(fmt.Sprintf("proc: cpu %d already has a program", c.p.ID))
	}
	c.attached = true
	c.eng.Spawn(fmt.Sprintf("cpu%d", c.p.ID), delay, func(p *sim.Process) {
		c.proc = p
		if !c.started {
			c.startAt = c.eng.Now()
			c.started = true
		}
		c.ended = false
		program(c)
		c.endAt = c.eng.Now()
		c.ended = true
		c.proc = nil
		c.attached = false
	})
}

// Now returns the current simulated time.
func (c *CPU) Now() sim.Time { return c.eng.Now() }

// Think charges cycles of local computation.
func (c *CPU) Think(cycles uint64) { c.sleep(&c.cyc.Compute, cycles) }

func (c *CPU) endpoint() network.Endpoint {
	return network.Endpoint{Node: c.p.Node, CPU: c.p.ID}
}

func (c *CPU) block(addr uint64) uint64 {
	return memsys.BlockAddr(addr, c.p.BlockBytes)
}

func (c *CPU) home(addr uint64) network.Endpoint {
	return network.Hub(memsys.HomeNode(addr))
}

// syncDest is the hub that receives this CPU's AMO/MAO requests: the home
// hub normally, the local node's hub when the backend interposes per-node
// sync engines that forward remote-homed requests themselves.
func (c *CPU) syncDest(addr uint64) network.Endpoint {
	if c.p.LocalSyncHub {
		return network.Hub(c.p.Node)
	}
	return c.home(addr)
}

// --- message delivery (event context) -------------------------------------

func (c *CPU) deliver(m *network.Msg) {
	switch m.Kind {
	case network.KindDataShared, network.KindDataExclusive, network.KindAckExclusive:
		c.applyCacheReply(m)
	case network.KindInvalidate:
		c.applyInvalidate(m)
	case network.KindIntervention:
		c.applyIntervention(m)
	case network.KindWordUpdate:
		c.c.PatchWord(m.Addr, m.Value)
		c.wakeLineWait()
	case network.KindUncachedLoadReply, network.KindUncachedStoreAck,
		network.KindMAOReply, network.KindAMOReply,
		network.KindActiveMessageAck, network.KindActiveMessageNack,
		network.KindActiveMessageReply:
		c.pushReply(m)
	case network.KindActiveMessage:
		c.acceptActiveMessage(m)
	default:
		panic(fmt.Sprintf("proc: cpu %d got unexpected %v", c.p.ID, m))
	}
}

// applyCacheReply completes the pending cache transaction at delivery time,
// so a racing intervention a cycle later sees fully committed state.
func (c *CPU) applyCacheReply(m *network.Msg) {
	op := &c.pending
	if !c.pendingLive || op.filled {
		panic(fmt.Sprintf("proc: cpu %d cache reply with no pending op: %v", c.p.ID, m))
	}
	block := c.block(op.addr)
	switch m.Kind {
	case network.KindDataShared:
		c.installLine(block, cache.Shared, m.Data)
	case network.KindDataExclusive:
		c.installLine(block, cache.Modified, m.Data)
	case network.KindAckExclusive:
		if !c.c.Promote(op.addr) {
			// The line vanished between upgrade and grant; the directory
			// only sends AckExclusive to a live sharer, so this is a bug.
			panic(fmt.Sprintf("proc: cpu %d AckExclusive without line", c.p.ID))
		}
	default:
		panic(fmt.Sprintf("proc: cpu %d cache reply with kind %v", c.p.ID, m.Kind))
	}
	switch op.kind {
	case opLoad, opLoadLinked:
		v, ok := c.c.ReadWord(op.addr)
		if !ok {
			panic("proc: load reply without line")
		}
		op.result = v
		if op.kind == opLoadLinked {
			c.linkAddr = block
			c.linkValid = true
		}
	case opStore:
		c.c.WriteWord(op.addr, op.val)
	case opStoreConditional:
		if c.linkValid && c.linkAddr == block {
			c.c.WriteWord(op.addr, op.val)
			op.ok = true
			c.linkValid = false
		} else {
			op.ok = false
		}
	case opAtomicRMW:
		v, _ := c.c.ReadWord(op.addr)
		op.result = v
		c.c.WriteWord(op.addr, op.rmw.Apply(v, op.val, op.aux))
	default:
		panic(fmt.Sprintf("proc: cpu %d cache reply with no operation in flight (kind %d)", c.p.ID, int(op.kind)))
	}
	op.filled = true
	c.wakePending()
}

func (c *CPU) installLine(block uint64, st cache.State, data []uint64) {
	if victim, dirty := c.c.Insert(block, st, data); dirty {
		c.writeback(victim)
	}
}

func (c *CPU) writeback(v cache.Victim) {
	c.net.Send(&network.Msg{
		Kind:      network.KindWriteback,
		Src:       c.endpoint(),
		Dst:       c.home(v.Addr),
		Addr:      v.Addr,
		DataBytes: c.p.BlockBytes,
		Data:      v.Words,
	})
}

func (c *CPU) applyInvalidate(m *network.Msg) {
	c.c.Invalidate(m.Addr)
	if c.linkValid && c.linkAddr == c.block(m.Addr) {
		c.linkValid = false
	}
	c.net.Send(&network.Msg{
		Kind: network.KindInvalidateAck,
		Src:  c.endpoint(),
		Dst:  m.Src,
		Addr: m.Addr,
	})
	c.wakeLineWait()
}

func (c *CPU) applyIntervention(m *network.Msg) {
	var words []uint64
	if m.Flags&directory.IvnInvalidate != 0 {
		if st, w := c.c.Invalidate(m.Addr); st == cache.Modified {
			words = w
		}
		if c.linkValid && c.linkAddr == c.block(m.Addr) {
			c.linkValid = false
		}
		c.wakeLineWait()
	} else {
		words, _ = c.c.Downgrade(m.Addr)
	}
	ack := network.Msg{
		Kind: network.KindInterventionAck,
		Src:  c.endpoint(),
		Dst:  m.Src,
		Addr: m.Addr,
		Data: words,
	}
	if words != nil {
		ack.DataBytes = c.p.BlockBytes
	} else {
		// Already written back or only shared: the home's out-of-band
		// writeback processing has (or will have) current data.
		ack.Flags = directory.IvnAckStale
	}
	c.net.Send(&ack)
}

// reply is what a wait reads of a reply-class message.
type reply struct {
	Kind  network.Kind
	Value uint64
}

func (c *CPU) pushReply(m *network.Msg) {
	c.replyQ = append(c.replyQ, reply{Kind: m.Kind, Value: m.Value})
	c.wakePending()
}

// popReply removes and returns the oldest queued reply; the backing array
// is reused once the queue drains.
func (c *CPU) popReply() reply {
	m := c.replyQ[c.replyHead]
	c.replyHead++
	if c.replyHead == len(c.replyQ) {
		c.replyQ = c.replyQ[:0]
		c.replyHead = 0
	}
	return m
}

func (c *CPU) replyPending() int { return len(c.replyQ) - c.replyHead }

func (c *CPU) amsgPending() int { return c.amsgQ.Len() }

func (c *CPU) acceptActiveMessage(m *network.Msg) {
	if c.amsgPending() >= c.p.ActMsgQueueDepth {
		c.net.Send(&network.Msg{
			Kind: network.KindActiveMessageNack,
			Src:  c.endpoint(), Dst: m.Src,
			Addr: m.Addr, Txn: m.Txn,
		})
		return
	}
	c.amsgQ.Push(*m)
	c.net.Send(&network.Msg{
		Kind: network.KindActiveMessageAck,
		Src:  c.endpoint(), Dst: m.Src,
		Addr: m.Addr, Txn: m.Txn,
	})
	if c.pendingWake != nil && c.wakeOnAmsg {
		c.wakePending()
	} else {
		c.wakeLineWait()
	}
}

func (c *CPU) wakePending() {
	if c.wait.step == stepReload {
		// A spin's reload waits for the reply: its next step runs where
		// the waiting program's dispatch would.
		c.wait.step = stepReplied
		c.eng.ScheduleCall(0, lineStepCall, c)
		return
	}
	if c.pendingWake == nil {
		return
	}
	w := c.pendingWake
	c.pendingWake = nil
	w()
}

// --- process-side waiting --------------------------------------------------

// parkForReply suspends the program until wakePending fires.
func (c *CPU) parkForReply() {
	if c.pendingWake != nil {
		panic(fmt.Sprintf("proc: cpu %d has two outstanding waits", c.p.ID))
	}
	c.beginWait(&c.cyc.MemoryStall)
	c.proc.Await(c.registerWake)
	c.endWait()
}

// awaitCacheReply issues no messages itself; the caller has sent the request
// and installed c.pending.
func (c *CPU) awaitCacheReply() pendingOp {
	for !c.pending.filled {
		c.parkForReply()
	}
	return c.endPending()
}

// endPending retires the filled cache transaction and returns it.
func (c *CPU) endPending() pendingOp {
	op := c.pending
	c.pending = pendingOp{}
	c.pendingLive = false
	return op
}

// kindMask is a bit set over message kinds for selecting which reply a
// wait accepts.
type kindMask uint64

func maskOf(kinds ...network.Kind) kindMask {
	var m kindMask
	for _, k := range kinds {
		m |= 1 << uint(k)
	}
	return m
}

func (m kindMask) has(k network.Kind) bool { return m&(1<<uint(k)) != 0 }

// Reply masks for each blocking operation, precomputed so the wait loop
// stays allocation-free.
var (
	maskUncachedLoad  = maskOf(network.KindUncachedLoadReply)
	maskUncachedStore = maskOf(network.KindUncachedStoreAck)
	maskMAOReply      = maskOf(network.KindMAOReply)
	maskAMOReply      = maskOf(network.KindAMOReply)
	maskAmsgAccept    = maskOf(network.KindActiveMessageAck, network.KindActiveMessageNack)
	maskAmsgReply     = maskOf(network.KindActiveMessageReply)
)

// awaitMsg pops the oldest reply-class message whose kind is in mask,
// parking until one arrives. Non-matching replies stay queued in arrival
// order for the wait they belong to: an active-message handler's remote
// load must not consume the ack of the RPC it interrupted (memory replies
// and AMSG control traffic interleave freely on backends where handlers
// touch remote memory). If serveAmsg is set, queued active messages are
// served while waiting (this is what prevents distributed home-CPU
// deadlock: two home CPUs RPC-ing each other must keep draining their own
// handler queues).
func (c *CPU) awaitMsg(mask kindMask, serveAmsg bool) reply {
	for {
		if m, ok := c.takeReply(mask); ok {
			return m
		}
		if serveAmsg && c.amsgPending() > 0 {
			c.serveOneActiveMessage()
			continue
		}
		c.wakeOnAmsg = serveAmsg
		c.parkForReply()
		c.wakeOnAmsg = false
	}
}

// takeReply removes and returns the oldest queued reply matching mask.
func (c *CPU) takeReply(mask kindMask) (reply, bool) {
	for i := c.replyHead; i < len(c.replyQ); i++ {
		if !mask.has(c.replyQ[i].Kind) {
			continue
		}
		m := c.replyQ[i]
		if i == c.replyHead {
			return c.popReply(), true
		}
		copy(c.replyQ[i:], c.replyQ[i+1:])
		c.replyQ = c.replyQ[:len(c.replyQ)-1]
		return m, true
	}
	return reply{}, false
}

// --- cached memory operations ---------------------------------------------

// Load performs a coherent load of the word at addr. Under RemoteMemory it
// is a remote (uncached) read instead.
func (c *CPU) Load(addr uint64) uint64 {
	if c.p.RemoteMemory {
		return c.UncachedLoad(addr)
	}
	c.sleep(&c.cyc.Compute, c.p.IssueCycles)
	for {
		if ln := c.c.Lookup(addr); ln != nil {
			c.sleep(&c.cyc.Compute, c.p.L1HitCycles)
			// Re-check after the hit latency: an invalidation may have
			// raced in while we slept.
			if v, ok := c.c.ReadWord(addr); ok {
				c.c.Touch(addr)
				return v
			}
			continue
		}
		c.sendGetShared(addr)
		return c.awaitCacheReply().result
	}
}

// sendGetShared starts Load's miss: it installs the pending load and asks
// the home for the block shared. The reply fills the word into the op.
func (c *CPU) sendGetShared(addr uint64) {
	c.pending = pendingOp{kind: opLoad, addr: addr}
	c.pendingLive = true
	c.net.Send(&network.Msg{
		Kind: network.KindGetShared,
		Src:  c.endpoint(), Dst: c.home(addr),
		Addr: c.block(addr),
	})
}

// LoadLinked performs the LL half of LL/SC. Like the R10K/Origin lineage it
// fetches the block with write intent (exclusive), so an uncontended SC
// completes locally; contended LL/SC then serializes through block
// migration rather than upgrade storms — the behaviour Figure 1(a) of the
// paper depicts ("all three processors request exclusive ownership").
func (c *CPU) LoadLinked(addr uint64) uint64 {
	if c.p.RemoteMemory {
		// Remote LL: read the word and remember its value; SC becomes a
		// remote compare-and-swap against it (ABA-tolerant, which is exact
		// for the monotonic counters the LL/SC primitives here build).
		v := c.UncachedLoad(addr)
		c.linkAddr = addr
		c.linkVal = v
		c.linkValid = true
		return v
	}
	c.sleep(&c.cyc.Compute, c.p.IssueCycles)
	for {
		ln := c.c.Lookup(addr)
		if ln != nil && ln.State == cache.Modified {
			c.sleep(&c.cyc.Compute, c.p.L1HitCycles)
			if cur := c.c.Lookup(addr); cur != nil && cur.State == cache.Modified {
				v, _ := c.c.ReadWord(addr)
				c.linkAddr = c.block(addr)
				c.linkValid = true
				return v
			}
			continue
		}
		kind := network.KindGetExclusive
		if ln != nil { // shared: upgrade to exclusive
			kind = network.KindUpgrade
		}
		c.pending = pendingOp{kind: opLoadLinked, addr: addr}
		c.pendingLive = true
		c.net.Send(&network.Msg{
			Kind: kind,
			Src:  c.endpoint(), Dst: c.home(addr),
			Addr: c.block(addr),
		})
		op := c.awaitCacheReply()
		return op.result
	}
}

// Store performs a coherent store. The write commits at ownership-grant
// time, so it never retries. Under RemoteMemory it is a remote write.
func (c *CPU) Store(addr, val uint64) {
	if c.p.RemoteMemory {
		c.UncachedStore(addr, val)
		return
	}
	c.sleep(&c.cyc.Compute, c.p.IssueCycles)
	for {
		ln := c.c.Lookup(addr)
		if ln != nil && ln.State == cache.Modified {
			c.sleep(&c.cyc.Compute, c.p.L1HitCycles)
			if cur := c.c.Lookup(addr); cur != nil && cur.State == cache.Modified {
				c.c.WriteWord(addr, val)
				return
			}
			continue
		}
		kind := network.KindGetExclusive
		if ln != nil { // shared: upgrade
			kind = network.KindUpgrade
		}
		c.pending = pendingOp{kind: opStore, addr: addr, val: val}
		c.pendingLive = true
		c.net.Send(&network.Msg{
			Kind: kind,
			Src:  c.endpoint(), Dst: c.home(addr),
			Addr: c.block(addr),
		})
		c.awaitCacheReply()
		return
	}
}

// StoreConditional attempts the SC half of LL/SC. It reports success; it
// fails fast when the link is already broken.
func (c *CPU) StoreConditional(addr, val uint64) bool {
	if c.p.RemoteMemory {
		if !c.linkValid || c.linkAddr != addr {
			c.sleep(&c.cyc.Compute, c.p.IssueCycles)
			c.stats.SCFailures++
			return false
		}
		expect := c.linkVal
		c.linkValid = false
		if c.mao(core.OpCompareSwap, addr, val, expect) != expect {
			c.stats.SCFailures++
			return false
		}
		return true
	}
	c.sleep(&c.cyc.Compute, c.p.IssueCycles)
	if !c.linkValid || c.linkAddr != c.block(addr) {
		c.stats.SCFailures++
		return false
	}
	ln := c.c.Lookup(addr)
	if ln == nil {
		// Line evicted (or invalidation raced the link check): fail.
		c.linkValid = false
		c.stats.SCFailures++
		return false
	}
	if ln.State == cache.Modified {
		c.sleep(&c.cyc.Compute, c.p.L1HitCycles)
		if cur := c.c.Lookup(addr); cur != nil && cur.State == cache.Modified && c.linkValid && c.linkAddr == c.block(addr) {
			c.c.WriteWord(addr, val)
			c.linkValid = false
			return true
		}
		c.stats.SCFailures++
		return false
	}
	c.pending = pendingOp{kind: opStoreConditional, addr: addr, val: val}
	c.pendingLive = true
	c.net.Send(&network.Msg{
		Kind: network.KindUpgrade,
		Src:  c.endpoint(), Dst: c.home(addr),
		Addr: c.block(addr),
	})
	op := c.awaitCacheReply()
	if !op.ok {
		c.stats.SCFailures++
	}
	return op.ok
}

// AtomicFetchAdd is the processor-side atomic fetch-and-add: a single
// exclusive-ownership transaction whose read-modify-write commits at grant
// time. It returns the previous value.
func (c *CPU) AtomicFetchAdd(addr, delta uint64) uint64 {
	return c.atomicRMW(core.OpFetchAdd, addr, delta, 0)
}

// AtomicSwap atomically exchanges the word at addr with val, returning the
// previous value.
func (c *CPU) AtomicSwap(addr, val uint64) uint64 {
	return c.atomicRMW(core.OpSwap, addr, val, 0)
}

// AtomicCompareSwap atomically replaces the word at addr with val if it
// equals expect, returning the previous value (success iff result ==
// expect).
func (c *CPU) AtomicCompareSwap(addr, expect, val uint64) uint64 {
	return c.atomicRMW(core.OpCompareSwap, addr, val, expect)
}

// atomicRMW implements the processor-side atomic instructions: the RMW
// commits at ownership-grant time, so it never retries. Under RemoteMemory
// the instruction executes at the home memory agent instead.
func (c *CPU) atomicRMW(op core.Op, addr, operand, aux uint64) uint64 {
	if c.p.RemoteMemory {
		return c.mao(op, addr, operand, aux)
	}
	c.sleep(&c.cyc.Compute, c.p.IssueCycles)
	for {
		ln := c.c.Lookup(addr)
		if ln != nil && ln.State == cache.Modified {
			c.sleep(&c.cyc.Compute, c.p.AtomicOpCycles)
			if cur := c.c.Lookup(addr); cur != nil && cur.State == cache.Modified {
				v, _ := c.c.ReadWord(addr)
				c.c.WriteWord(addr, op.Apply(v, operand, aux))
				return v
			}
			continue
		}
		kind := network.KindGetExclusive
		if ln != nil {
			kind = network.KindUpgrade
		}
		c.pending = pendingOp{kind: opAtomicRMW, addr: addr, val: operand, aux: aux, rmw: op}
		c.pendingLive = true
		c.net.Send(&network.Msg{
			Kind: kind,
			Src:  c.endpoint(), Dst: c.home(addr),
			Addr: c.block(addr),
		})
		done := c.awaitCacheReply()
		return done.result
	}
}

// --- uncached and memory-side operations -----------------------------------

// UncachedLoad reads a word directly from its home node, bypassing the
// cache (the access mode MAO spinning requires).
func (c *CPU) UncachedLoad(addr uint64) uint64 {
	c.sleep(&c.cyc.Compute, c.p.IssueCycles)
	c.net.Send(&network.Msg{
		Kind: network.KindUncachedLoad,
		Src:  c.endpoint(), Dst: c.home(addr),
		Addr: addr,
	})
	return c.awaitMsg(maskUncachedLoad, false).Value
}

// UncachedStore writes a word directly at its home node.
func (c *CPU) UncachedStore(addr, val uint64) {
	c.sleep(&c.cyc.Compute, c.p.IssueCycles)
	c.net.Send(&network.Msg{
		Kind: network.KindUncachedStore,
		Src:  c.endpoint(), Dst: c.home(addr),
		Addr:  addr,
		Value: val,
	})
	c.awaitMsg(maskUncachedStore, false)
}

// MAOFetchAdd issues a conventional memory-side atomic fetch-and-add
// (uncached, no coherence interaction) and returns the previous value.
func (c *CPU) MAOFetchAdd(addr, delta uint64) uint64 {
	return c.mao(core.OpFetchAdd, addr, delta, 0)
}

// MAOSwap issues a memory-side atomic exchange.
func (c *CPU) MAOSwap(addr, val uint64) uint64 {
	return c.mao(core.OpSwap, addr, val, 0)
}

// MAOCompareSwap issues a memory-side compare-and-swap; returns the
// previous value.
func (c *CPU) MAOCompareSwap(addr, expect, val uint64) uint64 {
	return c.mao(core.OpCompareSwap, addr, val, expect)
}

func (c *CPU) mao(op core.Op, addr, operand, aux uint64) uint64 {
	c.sleep(&c.cyc.Compute, c.p.IssueCycles)
	c.net.Send(&network.Msg{
		Kind: network.KindMAORequest,
		Src:  c.endpoint(), Dst: c.syncDest(addr),
		Addr:  addr,
		Value: operand,
		Aux:   aux,
		Op:    int(op),
		Flags: core.FlagMAO,
	})
	return c.awaitMsg(maskMAOReply, false).Value
}

// AMO issues an active memory operation and returns the previous value of
// the word. test is compared against the operation result when
// core.FlagTest is set; core.FlagUpdateAlways pushes a word update after
// every operation.
func (c *CPU) AMO(op core.Op, addr, operand, test uint64, flags uint32) uint64 {
	c.sleep(&c.cyc.Compute, c.p.IssueCycles)
	c.net.Send(&network.Msg{
		Kind: network.KindAMORequest,
		Src:  c.endpoint(), Dst: c.syncDest(addr),
		Addr:  addr,
		Value: operand,
		Aux:   test,
		Op:    int(op),
		Flags: flags,
	})
	return c.awaitMsg(maskAMOReply, false).Value
}

// AMOInc is the paper's amo.inc: increment with a test value that triggers
// the fine-grained update when the count reaches target.
func (c *CPU) AMOInc(addr, target uint64) uint64 {
	return c.AMO(core.OpInc, addr, 0, target, core.FlagTest)
}

// AMOFetchAdd is the paper's amo.fetchadd: add delta and immediately push
// the new value into sharers' caches.
func (c *CPU) AMOFetchAdd(addr, delta uint64) uint64 {
	return c.AMO(core.OpFetchAdd, addr, delta, 0, core.FlagUpdateAlways)
}

// --- active messages --------------------------------------------------------

// homeCPU returns the CPU id that executes active message handlers for the
// given address: CPU 0 of the home node.
func (c *CPU) homeCPU(addr uint64) int {
	return memsys.HomeNode(addr) * c.p.ProcsPerNode
}

// ActiveMessageCall ships (handler, addr, arg) to the home CPU of addr and
// blocks until the handler's result returns. NACKed sends (queue overflow at
// the home) are retransmitted after a deterministic linear backoff.
// Self-directed calls run the handler inline, as a local invocation.
func (c *CPU) ActiveMessageCall(handler int, addr, arg uint64) uint64 {
	target := c.homeCPU(addr)
	if target == c.p.ID {
		c.sleep(&c.cyc.Compute, c.p.ActMsgInvokeCycles)
		return c.runHandler(handler, addr, arg)
	}
	for attempt := uint64(1); ; attempt++ {
		c.sleep(&c.cyc.Compute, c.p.IssueCycles)
		c.net.Send(&network.Msg{
			Kind:  network.KindActiveMessage,
			Src:   c.endpoint(),
			Dst:   network.Endpoint{Node: target / c.p.ProcsPerNode, CPU: target},
			Addr:  addr,
			Value: arg,
			Op:    handler,
			Txn:   uint64(c.p.ID),
		})
		m := c.awaitMsg(maskAmsgAccept, true)
		switch m.Kind {
		case network.KindActiveMessageNack:
			c.stats.AmsgNacks++
			c.stats.AmsgRetries++
			// Deterministic linear backoff with a per-CPU phase offset.
			c.sleep(&c.cyc.MemoryStall, c.p.ActMsgTimeoutCycles*attempt+uint64(c.p.ID%13)*64)
		case network.KindActiveMessageAck:
			// Accepted; now wait for the handler's reply (serving our own
			// queue meanwhile).
			r := c.awaitMsg(maskAmsgReply, true)
			return r.Value
		default:
			panic(fmt.Sprintf("proc: cpu %d unexpected %v during active message call", c.p.ID, m))
		}
	}
}

// serveOneActiveMessage runs the oldest queued handler. Called from process
// context.
func (c *CPU) serveOneActiveMessage() {
	m := c.amsgQ.Pop()
	c.stats.AmsgServed++
	c.sleep(&c.cyc.Compute, c.p.ActMsgInvokeCycles)
	result := c.runHandler(m.Op, m.Addr, m.Value)
	c.net.Send(&network.Msg{
		Kind:  network.KindActiveMessageReply,
		Src:   c.endpoint(),
		Dst:   m.Src,
		Addr:  m.Addr,
		Value: result,
		Txn:   m.Txn,
	})
}

func (c *CPU) runHandler(id int, addr, arg uint64) uint64 {
	h := c.handlers[id]
	if h == nil {
		panic(fmt.Sprintf("proc: cpu %d has no handler %d", c.p.ID, id))
	}
	c.sleep(&c.cyc.Compute, c.p.ActMsgHandlerCycles)
	return h(c, addr, arg)
}

// ServeActiveMessages drains queued handlers; spin loops call this so home
// CPUs keep making progress while they wait. Reports whether any ran.
func (c *CPU) ServeActiveMessages() bool {
	ran := false
	for c.amsgPending() > 0 {
		c.serveOneActiveMessage()
		ran = true
	}
	return ran
}

// ServeUntil keeps the CPU serving active messages until done reports true.
// The machine parks finished programs here so home CPUs remain responsive
// while other CPUs still need their handlers. Between services the loop
// waits on line events, re-checking done and the handler queue in event
// context; done must therefore be a pure read of simulated state. Poke
// wakes the loop.
func (c *CPU) ServeUntil(done func() bool) {
	for !done() {
		if !c.ServeActiveMessages() {
			c.awaitLineWait(lineWait{done: done})
		}
	}
	c.ServeActiveMessages() // final drain (queues are empty by construction)
}

// Poke wakes the CPU's parked spin or serve loop, if any, so it re-checks
// its predicate.
func (c *CPU) Poke() { c.wakeLineWait() }

// --- spinning ----------------------------------------------------------------

// SpinUntil loads addr coherently until pred holds and returns the
// satisfying value. Between checks it parks until a line event
// (invalidation, word update) or an incoming active message. The loop runs
// in event context from its first load, reloads that miss included (see
// the package comment), so the program runs only to serve queued active
// messages, after which the loop loads afresh, and to return. Under
// RemoteMemory the cache stays empty and every check reloads remotely:
// the loop is SpinUntilUncached with no poll gap.
func (c *CPU) SpinUntil(addr uint64, pred Pred) uint64 {
	if c.p.RemoteMemory {
		return c.SpinUntilUncached(addr, pred, 0)
	}
	for c.awaitLineWait(lineWait{addr: addr, pred: pred}) == exitAmsg {
		c.ServeActiveMessages()
	}
	return c.wait.v
}

// SpinUntilUncached polls addr with uncached loads (the MAO spin mode, and
// SpinUntil under RemoteMemory), with a fixed delay between polls. Returns
// the satisfying value.
func (c *CPU) SpinUntilUncached(addr uint64, pred Pred, pollGap uint64) uint64 {
	for {
		v := c.UncachedLoad(addr)
		c.sleep(&c.cyc.Compute, c.p.SpinCheckCycles)
		if pred.holds(v) {
			return v
		}
		c.ServeActiveMessages()
		if pollGap > 0 {
			c.sleep(&c.cyc.SpinIdle, pollGap)
		}
	}
}

// --- line waits: spin and serve loops in event context -----------------------

// lineWait is a spin loop or a parked serve loop. The program starts it
// with awaitLineWait; from then on each wake, each latency and each reply
// is one event running lineStep, until a step resumes the program with the
// reason in exit.
type lineWait struct {
	step lineStep
	exit lineExit
	addr uint64
	pred Pred
	v    uint64 // the word the re-check loaded
	// done is ServeUntil's predicate; nil for a spin loop.
	done func() bool
}

// lineStep is what the next event of a line wait does.
type lineStep uint8

const (
	stepNone    lineStep = iota // no wait, or the program is running it
	stepParked                  // parked: the next line event wakes it
	stepWoken                   // woken: the re-check starts
	stepIssued                  // the load's issue latency has passed
	stepHit                     // the load's hit latency has passed
	stepReload                  // the load missed: the next reply wakes it
	stepReplied                 // woken by a reply, the miss's or another wait's
	stepChecked                 // the spin check's latency has passed
)

// lineExit is why a step resumed the program.
type lineExit uint8

const (
	exitHolds lineExit = iota // the spin predicate holds on wait.v, or done holds
	exitAmsg                  // active messages are queued: serve them
)

// lineStepCall runs a CPU's next line-wait step; one function serves every
// CPU, so scheduling a step never allocates.
func lineStepCall(a any) { a.(*CPU).lineStep() }

// awaitLineWait runs w until a step resumes the program, and returns why.
// A serve loop parks at once; a spin loop starts with its load's issue
// latency. Parked time is charged to the spin bucket, a miss's reply wait
// to the stall bucket and each latency to the compute bucket, as the
// program's own waits would be.
func (c *CPU) awaitLineWait(w lineWait) lineExit {
	c.wait = w
	if w.done != nil {
		c.parkLineWait()
	} else {
		c.lineSleep(stepIssued, c.p.IssueCycles)
	}
	c.proc.Suspend()
	return c.wait.exit
}

func (c *CPU) parkLineWait() {
	c.beginWait(&c.cyc.SpinIdle)
	c.wait.step = stepParked
}

// wakeLineWait schedules the parked loop's re-check, exactly where the
// woken program's dispatch would be scheduled. A wake that finds no parked
// loop (none, or one already re-checking) does nothing.
func (c *CPU) wakeLineWait() {
	if c.wait.step != stepParked {
		return
	}
	c.wait.step = stepWoken
	c.eng.ScheduleCall(0, lineStepCall, c)
}

// lineStep runs one step of the re-check in event context: it closes the
// wait the previous step opened, then does what the woken loop would do
// next, up to its next latency (scheduled as the step after this one) or
// until the program must act (resumed as this event's last action).
func (c *CPU) lineStep() {
	c.endWait()
	w := &c.wait
	switch w.step {
	case stepWoken:
		if w.done != nil {
			switch {
			case w.done():
				c.resumeLineWait(exitHolds)
			case c.amsgPending() > 0:
				c.resumeLineWait(exitAmsg)
			default:
				c.parkLineWait()
			}
			return
		}
		c.lineSleep(stepIssued, c.p.IssueCycles)
	case stepIssued:
		c.lineLookup()
	case stepHit:
		v, ok := c.c.ReadWord(w.addr)
		if !ok {
			// Invalidated during the hit latency: Load looks up again.
			c.lineLookup()
			return
		}
		c.c.Touch(w.addr)
		w.v = v
		c.lineSleep(stepChecked, c.p.SpinCheckCycles)
	case stepReplied:
		if !c.pending.filled {
			// Another wait's reply: wait on, as awaitCacheReply does.
			c.parkReload()
			return
		}
		w.v = c.endPending().result
		c.lineSleep(stepChecked, c.p.SpinCheckCycles)
	case stepChecked:
		if w.pred.holds(w.v) {
			c.resumeLineWait(exitHolds)
			return
		}
		if c.amsgPending() > 0 {
			c.resumeLineWait(exitAmsg)
			return
		}
		cur, ok := c.c.ReadWord(w.addr)
		if !ok {
			// The line is gone: load again.
			c.lineSleep(stepIssued, c.p.IssueCycles)
			return
		}
		if w.pred.holds(cur) {
			w.v = cur
			c.resumeLineWait(exitHolds)
			return
		}
		c.parkLineWait()
	default:
		panic("proc: line-wait step with no wait in progress")
	}
}

// lineLookup is Load's lookup: a hit waits out the hit latency, a miss
// sends GetShared and waits for the reply.
func (c *CPU) lineLookup() {
	if c.c.Lookup(c.wait.addr) == nil {
		c.sendGetShared(c.wait.addr)
		c.parkReload()
		return
	}
	c.lineSleep(stepHit, c.p.L1HitCycles)
}

// parkReload waits for a reply, charged to the stall bucket as the
// program's reply wait would be; wakePending schedules the next step.
func (c *CPU) parkReload() {
	c.beginWait(&c.cyc.MemoryStall)
	c.wait.step = stepReload
}

// lineSleep charges cycles to the compute bucket, as the program's sleep
// would, with the next step as its wake. The step event is popped with the
// sequence and the Executed count a run-ahead sleep takes, so the event
// order is the one the program's sleep gives.
func (c *CPU) lineSleep(next lineStep, cycles uint64) {
	c.beginWait(&c.cyc.Compute)
	c.wait.step = next
	c.eng.ScheduleCall(sim.Time(cycles), lineStepCall, c)
}

// resumeLineWait hands the program back, inside the current event.
func (c *CPU) resumeLineWait(exit lineExit) {
	c.wait.step, c.wait.exit = stepNone, exit
	c.proc.Resume()
}
