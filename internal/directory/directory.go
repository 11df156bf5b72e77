// Package directory implements the home-node directory controller of the
// simulated CC-NUMA machine: a blocking MSI write-invalidate protocol with
// interventions and invalidation-ack collection, extended with the paper's
// fine-grained get/put mechanism. A "fine get" lets the node's Active Memory
// Unit obtain the coherent value of a single word and become a
// word-granularity sharer permitted to mutate it; a "fine put" writes the
// word back to memory and pushes word updates to every CPU caching the
// block, without invalidating anyone.
//
// Transactions are serialized per block: while one is in flight the block is
// busy and later requests queue. Writebacks are exempt (processed
// immediately) so that an eviction racing an intervention resolves instead
// of deadlocking.
package directory

import (
	"fmt"
	"math/bits"

	"amosim/internal/memsys"
	"amosim/internal/metrics"
	"amosim/internal/network"
	"amosim/internal/sim"
)

// state is the directory-side block state.
type state int

const (
	unowned state = iota
	shared
	exclusive
)

func (s state) String() string {
	switch s {
	case unowned:
		return "U"
	case shared:
		return "S"
	case exclusive:
		return "E"
	}
	return fmt.Sprintf("state(%d)", int(s))
}

// entry is the directory record for one block.
type entry struct {
	state    state
	owner    int       // CPU id, valid when state == exclusive
	sharers  sharerSet // sharer vector, valid when state == shared
	amuWords uint64    // bit i set: the local AMU holds word i of the block
	busy     bool
	waitq    sim.FIFO[func()] // queued transactions
	// txn is live (txnLive) while busy; interventions and inv-acks continue
	// it. The record is inlined in the entry so starting a transaction never
	// allocates.
	txn     txn
	txnLive bool
}

type txn struct {
	waitingAcks int
	onAcks      func()
	onIvnAck    func(m network.Msg)
}

// addSharer inserts cpu into the sharer vector (no-op if present).
func (e *entry) addSharer(cpu int) { e.sharers.add(cpu) }

// removeSharer deletes cpu from the sharer vector (no-op if absent).
func (e *entry) removeSharer(cpu int) { e.sharers.remove(cpu) }

// hasSharer reports whether cpu is recorded as a sharer.
func (e *entry) hasSharer(cpu int) bool { return e.sharers.has(cpu) }

// clearSharers empties the sharer vector, keeping its backing storage.
func (e *entry) clearSharers() { e.sharers.clear() }

// AMUPort is how the directory reaches the Active Memory Unit that shares
// its hub. Recall must synchronously write every AMU-cached word of the
// block back to memory and invalidate the AMU's copies.
type AMUPort interface {
	Recall(block uint64)
}

// Params carries the timing and geometry knobs the controller needs.
type Params struct {
	Node         int
	ProcsPerNode int
	// Procs is the machine's total CPU count; it sizes the coarse bitmap
	// the sharer vector promotes to (0 = grow on demand).
	Procs      int
	BlockBytes int
	DirCycles  uint64
	DRAMCycles uint64
	// InjectCycles serializes fan-out: the i-th message of an invalidation
	// or word-update burst leaves the hub i*InjectCycles after the first
	// (one network port, one packet at a time). This is the t_p term of the
	// paper's AMO cost model.
	InjectCycles uint64
	// MulticastUpdates disables injection serialization for word-update
	// bursts only (hardware multicast; the paper's footnote 2).
	MulticastUpdates bool
}

// Controller is one node's directory controller.
type Controller struct {
	eng sim.Engine
	net *network.Network
	mem *memsys.Memory
	amu AMUPort
	p   Params
	// scratch is the buffer replyData reads a block into; Send copies it,
	// so one buffer serves every reply.
	scratch []uint64

	// chunks is the slab of directory entries, indexed by the block's
	// offset within the node (see entryOf). A chunk is allocated on first
	// touch and never moves, since transaction closures hold *entry.
	chunks     []*chunk
	base       uint64 // NodeBase(Node)
	blockShift uint   // log2(BlockBytes)

	// reqFree/fineFree recycle the request and fine-put/evict records below,
	// so accepting a CPU request or flushing an AMU word never allocates.
	reqFree  []*dirReq
	fineFree []*fineJob

	perturb  Perturber
	observer func(block uint64)

	stats metrics.DirectoryStats
}

// dirReq is a pooled CPU-request record. Its run/deferred funcs are bound
// once at construction; the record returns to the controller's free list the
// moment its transaction starts (processRequest copies the message).
type dirReq struct {
	c       *Controller
	block   uint64
	m       network.Msg
	run     func() // start the transaction, releasing the record first
	delayed func() // submit after a perturber delay
}

func (c *Controller) acquireReq() *dirReq {
	if k := len(c.reqFree) - 1; k >= 0 {
		r := c.reqFree[k]
		c.reqFree = c.reqFree[:k]
		return r
	}
	r := &dirReq{c: c}
	r.run = func() {
		block, m := r.block, r.m
		r.block, r.m = 0, network.Msg{}
		r.c.reqFree = append(r.c.reqFree, r)
		r.c.processRequest(block, m)
	}
	r.delayed = func() { r.c.submit(r.block, r.run) }
	return r
}

// fineJob is a pooled fine-put (read != nil) or fine-evict (read == nil)
// record: the two-stage submit/occupy chain runs through prebound funcs, so
// flushing an AMU word to sharers never allocates.
type fineJob struct {
	c     *Controller
	block uint64
	addr  uint64
	val   uint64
	read  func() (uint64, bool) // fine put: AMU value read at execution time
	done  func()                // fine put: completion callback
	start func()
	flush func()
}

func (c *Controller) acquireFine() *fineJob {
	if k := len(c.fineFree) - 1; k >= 0 {
		j := c.fineFree[k]
		c.fineFree = c.fineFree[:k]
		return j
	}
	j := &fineJob{c: c}
	j.start = func() {
		ctl := j.c
		e := ctl.entryOf(j.block)
		if j.read != nil {
			val, ok := j.read()
			if !ok || e.amuWords&ctl.wordBit(j.addr) == 0 {
				block, done := j.block, j.done
				ctl.releaseFine(j)
				ctl.complete(block)
				done()
				return
			}
			j.val = val
		}
		ctl.occupy(ctl.p.DirCycles, j.flush)
	}
	j.flush = func() {
		ctl := j.c
		e := ctl.entryOf(j.block)
		ctl.mem.WriteWord(j.addr, j.val)
		for it := e.sharers.iter(); ; {
			i, cpu, ok := it.next()
			if !ok {
				break
			}
			ctl.stats.WordUpdates++
			ctl.sendStaggered(i, network.Msg{
				Kind:      network.KindWordUpdate,
				Src:       network.Hub(ctl.p.Node),
				Dst:       ctl.cpuEndpoint(cpu),
				Addr:      j.addr,
				Value:     j.val,
				DataBytes: memsys.WordBytes,
			})
		}
		block, done := j.block, j.done
		ctl.releaseFine(j)
		ctl.complete(block)
		if done != nil {
			done()
		}
	}
	return j
}

func (c *Controller) releaseFine(j *fineJob) {
	j.block, j.addr, j.val, j.read, j.done = 0, 0, 0, nil, nil
	c.fineFree = append(c.fineFree, j)
}

// Perturber injects protocol-legal pressure into the controller — the
// fault-injection hook used by internal/chaos. RequestDelay returns extra
// cycles to hold the CPU request m before it is submitted to its block's
// transaction queue, modeling a NACK-and-retry: the requester's message
// bounces once and comes back later. It is consulted exactly once per
// request (no unbounded re-delay) and only for GETS/GETX/UPGRADE —
// writebacks and acks resolve races and must never be held.
type Perturber interface {
	RequestDelay(m network.Msg) sim.Time
}

// chunkEntries is the number of directory entries per slab chunk.
const chunkEntries = 8

// chunk is one slab allocation: the entries of chunkEntries consecutive
// blocks.
type chunk [chunkEntries]entry

// New creates a directory controller for node p.Node. The AMU port may be
// set later with SetAMU (the AMU and directory reference each other).
func New(eng sim.Engine, net *network.Network, mem *memsys.Memory, p Params) *Controller {
	if p.ProcsPerNode <= 0 {
		panic("directory: ProcsPerNode must be positive")
	}
	if !memsys.ValidBlockBytes(p.BlockBytes) {
		panic(fmt.Sprintf("directory: bad block size %d (want a power of two in [%d, %d])", p.BlockBytes, memsys.WordBytes, memsys.MaxBlockBytes))
	}
	return &Controller{
		eng:        eng,
		net:        net,
		mem:        mem,
		p:          p,
		scratch:    make([]uint64, p.BlockBytes/memsys.WordBytes),
		base:       memsys.NodeBase(p.Node),
		blockShift: uint(bits.TrailingZeros(uint(p.BlockBytes))),
	}
}

// SetAMU installs the AMU recall port.
func (c *Controller) SetAMU(a AMUPort) { c.amu = a }

// SetPerturber installs a request-delay perturber (nil disables).
func (c *Controller) SetPerturber(p Perturber) { c.perturb = p }

// SetObserver installs fn, called at the completion of every transaction on
// this controller with the block address, while the new directory record is
// in place. Observers must be read-only: they run in event context between
// a transaction's final state update and the dispatch of the next queued
// one. internal/chaos attaches its SWMR/sharer-sync oracle here.
func (c *Controller) SetObserver(fn func(block uint64)) { c.observer = fn }

// Node returns the home node id.
func (c *Controller) Node() int { return c.p.Node }

// Stats returns the controller's named protocol counters: interventions
// sent, invalidations sent, fine-grained word updates pushed, and the
// pipeline/DRAM occupancy gauge.
func (c *Controller) Stats() metrics.DirectoryStats { return c.stats }

// occupy charges cycles of directory pipeline (and DRAM) occupancy before
// running job: the utilization gauge counterpart of every Schedule-based
// latency charge.
func (c *Controller) occupy(cycles uint64, job func()) {
	c.stats.OccupancyCycles += cycles
	c.eng.Schedule(sim.Time(cycles), job)
}

// entryOf returns the record of block, which must be homed on this node.
// The per-node bump allocator keeps block offsets dense, so the slab is a
// short index of fixed chunks: no hashing, and one allocation per
// chunkEntries blocks touched.
func (c *Controller) entryOf(block uint64) *entry {
	i := (block - c.base) >> c.blockShift
	if k := i / chunkEntries; k < uint64(len(c.chunks)) && c.chunks[k] != nil {
		return &c.chunks[k][i%chunkEntries]
	}
	return c.touch(block, i)
}

// touch allocates the chunk holding record i (block's), extending the slab
// index as needed, and returns the record. A block homed on another node
// always indexes past the slab (offsets within a node are below
// 1<<NodeShift), so it lands here and panics.
func (c *Controller) touch(block, i uint64) *entry {
	if memsys.HomeNode(block) != c.p.Node {
		panic(fmt.Sprintf("directory: block %#x is not homed on node %d", block, c.p.Node))
	}
	k := i / chunkEntries
	if k >= uint64(len(c.chunks)) {
		c.chunks = append(c.chunks, make([]*chunk, k+1-uint64(len(c.chunks)))...)
	}
	ch := new(chunk)
	for j := range ch {
		ch[j].sharers.procs = c.p.Procs
	}
	c.chunks[k] = ch
	return &ch[i%chunkEntries]
}

// wordBit returns the amuWords bit of the word at addr.
func (c *Controller) wordBit(addr uint64) uint64 {
	return 1 << memsys.WordIndex(addr, c.p.BlockBytes)
}

func (c *Controller) block(addr uint64) uint64 {
	return memsys.BlockAddr(addr, c.p.BlockBytes)
}

func (c *Controller) cpuEndpoint(cpu int) network.Endpoint {
	return network.Endpoint{Node: cpu / c.p.ProcsPerNode, CPU: cpu}
}

// Handle processes one directory-protocol message. It runs in event context.
func (c *Controller) Handle(m network.Msg) {
	block := c.block(m.Addr)
	e := c.entryOf(block)
	switch m.Kind {
	case network.KindWriteback:
		// Never blocked: resolves eviction/intervention races.
		c.applyWriteback(e, m)
	case network.KindInvalidateAck:
		c.applyInvAck(e)
	case network.KindInterventionAck:
		c.applyIvnAck(e, m)
	case network.KindGetShared, network.KindGetExclusive, network.KindUpgrade:
		r := c.acquireReq()
		r.block, r.m = block, m
		if c.perturb != nil {
			if d := c.perturb.RequestDelay(m); d > 0 {
				c.eng.Schedule(d, r.delayed)
				return
			}
		}
		c.submit(block, r.run)
	default:
		panic(fmt.Sprintf("directory: unexpected message %v", m))
	}
}

// submit runs job now if the block is idle, otherwise queues it.
func (c *Controller) submit(block uint64, job func()) {
	e := c.entryOf(block)
	if e.busy {
		e.waitq.Push(job)
		return
	}
	e.busy = true
	job()
}

// complete ends the current transaction on block and starts the next queued
// one, if any, after the directory's per-transaction occupancy charge.
// The charge matters beyond fidelity: it gives each exclusive grantee a few
// cycles of guaranteed residence before the next queued request's
// intervention can be dispatched, which is what lets an LL/SC pair commit
// under a full request queue instead of livelocking.
func (c *Controller) complete(block uint64) {
	e := c.entryOf(block)
	if !e.busy {
		panic("directory: complete on idle block")
	}
	e.txn = txn{}
	e.txnLive = false
	if c.observer != nil {
		c.observer(block)
	}
	if e.waitq.Len() == 0 {
		e.busy = false
		return
	}
	c.occupy(c.p.DirCycles, e.waitq.Pop())
}

// recallAMU flushes AMU-held words of block into memory so that memory is
// current before the directory supplies data or grants exclusivity.
func (c *Controller) recallAMU(e *entry, block uint64) {
	if e.amuWords == 0 {
		return
	}
	if c.amu == nil {
		panic("directory: AMU words held but no AMU port")
	}
	c.amu.Recall(block)
	e.amuWords = 0
}

// processRequest starts a CPU-originated transaction. The block is busy.
func (c *Controller) processRequest(block uint64, m network.Msg) {
	e := c.entryOf(block)
	req := m.Src
	switch m.Kind {
	case network.KindGetShared:
		switch e.state {
		case unowned, shared:
			// No AMU recall here: shared readers may observe the last
			// fine-put value from memory while the AMU holds a newer one —
			// the paper's release-consistency semantics for AMO variables
			// (§3.2). Recalling on reads would also cancel queued fine-puts
			// without invalidating sharers, losing their wake-up.
			c.replyData(block, req, network.KindDataShared, func() {
				e.state = shared
				e.addSharer(req.CPU)
				c.complete(block)
			})
		case exclusive:
			c.intervene(block, e, false /*downgrade*/, func(stale bool) {
				// A stale ack means the owner's writeback raced ahead: its
				// copy is gone (and e.owner was cleared when the writeback
				// was applied), so only the requester becomes a sharer.
				// Recording the departed owner here would create a phantom
				// sharer that could later be granted a data-less upgrade
				// for a line it no longer holds.
				e.clearSharers()
				e.addSharer(req.CPU)
				if !stale {
					e.addSharer(e.owner)
				}
				e.state = shared
				c.replyData(block, req, network.KindDataShared, func() { c.complete(block) })
			})
		}
	case network.KindGetExclusive:
		c.grantExclusive(block, e, req)
	case network.KindUpgrade:
		if e.state == shared && e.amuWords == 0 {
			// A data-less grant is only safe when no word of the block is
			// AMU-held: sharers may be stale with respect to the AMU's value
			// (release consistency), so a block with AMU words must be
			// recalled and re-supplied as a full GETX.
			if e.hasSharer(req.CPU) {
				// True upgrade: invalidate other sharers, grant without data.
				c.recallAMU(e, block)
				e.removeSharer(req.CPU)
				c.invalidateSharers(e, block, func() {
					e.state = exclusive
					e.owner = req.CPU
					e.clearSharers()
					c.send(network.Msg{
						Kind: network.KindAckExclusive,
						Src:  network.Hub(c.p.Node), Dst: req,
						Addr: block,
					})
					c.complete(block)
				})
				return
			}
		}
		// Requester lost its copy while the upgrade was in flight (or the
		// block moved to exclusive): treat as a full GETX.
		c.grantExclusive(block, e, req)
	default:
		panic(fmt.Sprintf("directory: processRequest on non-request %v", m))
	}
}

// grantExclusive implements GETX (and upgrade-turned-GETX).
func (c *Controller) grantExclusive(block uint64, e *entry, req network.Endpoint) {
	switch e.state {
	case unowned:
		c.recallAMU(e, block)
		c.replyData(block, req, network.KindDataExclusive, func() {
			e.state = exclusive
			e.owner = req.CPU
			c.complete(block)
		})
	case shared:
		c.recallAMU(e, block)
		e.removeSharer(req.CPU)
		c.invalidateSharers(e, block, func() {
			c.replyData(block, req, network.KindDataExclusive, func() {
				e.state = exclusive
				e.owner = req.CPU
				e.clearSharers()
				c.complete(block)
			})
		})
	case exclusive:
		if e.owner == req.CPU {
			// Owner re-requesting after its own writeback raced this GETX.
			c.replyData(block, req, network.KindDataExclusive, func() { c.complete(block) })
			return
		}
		c.intervene(block, e, true /*invalidate*/, func(bool) {
			c.replyData(block, req, network.KindDataExclusive, func() {
				e.state = exclusive
				e.owner = req.CPU
				c.complete(block)
			})
		})
	}
}

// replyData reads the block from memory (charging directory + DRAM latency)
// and sends it to dst, then runs done.
func (c *Controller) replyData(block uint64, dst network.Endpoint, kind network.Kind, done func()) {
	c.occupy(c.p.DirCycles+c.p.DRAMCycles, func() {
		c.mem.ReadBlockInto(block, c.scratch)
		c.send(network.Msg{
			Kind: kind,
			Src:  network.Hub(c.p.Node), Dst: dst,
			Addr:      block,
			DataBytes: c.p.BlockBytes,
			Data:      c.scratch,
		})
		done()
	})
}

// invalidateSharers sends INV to every current sharer, then runs done once
// all acks arrive. With no sharers it runs done immediately (after the
// directory occupancy charge).
func (c *Controller) invalidateSharers(e *entry, block uint64, done func()) {
	n := e.sharers.count()
	if n == 0 {
		c.occupy(c.p.DirCycles, done)
		return
	}
	e.txn = txn{waitingAcks: n, onAcks: done}
	e.txnLive = true
	for it := e.sharers.iter(); ; {
		i, cpu, ok := it.next()
		if !ok {
			break
		}
		c.stats.Invalidations++
		m := network.Msg{
			Kind: network.KindInvalidate,
			Src:  network.Hub(c.p.Node), Dst: c.cpuEndpoint(cpu),
			Addr: block,
		}
		c.sendStaggered(i, m)
	}
	e.clearSharers()
}

// sendStaggered injects the i-th message of a fan-out burst after
// i*InjectCycles, modeling the hub's single network port. With
// MulticastUpdates, word-update bursts leave as one injection.
func (c *Controller) sendStaggered(i int, m network.Msg) {
	if c.p.MulticastUpdates && m.Kind == network.KindWordUpdate {
		i = 0
	}
	c.net.SendAfter(sim.Time(uint64(i)*c.p.InjectCycles), m)
}

// sortedWords returns the AMU-held word addresses of block in ascending
// order, for introspection: a walk of the set bits from the lowest.
func sortedWords(block uint64, e *entry) []uint64 {
	out := make([]uint64, 0, bits.OnesCount64(e.amuWords))
	for m := e.amuWords; m != 0; m &= m - 1 {
		out = append(out, block+uint64(bits.TrailingZeros64(m))*memsys.WordBytes)
	}
	return out
}

func (c *Controller) applyInvAck(e *entry) {
	if !e.txnLive || e.txn.waitingAcks == 0 {
		panic("directory: unexpected invalidation ack")
	}
	e.txn.waitingAcks--
	if e.txn.waitingAcks == 0 {
		done := e.txn.onAcks
		e.txn = txn{}
		e.txnLive = false
		done()
	}
}

// intervene sends an intervention to the exclusive owner. If invalidate is
// true the owner drops the block, otherwise it downgrades to Shared. When
// the ack arrives, memory is updated from the owner's data (unless the
// owner had already written back, in which case the out-of-band writeback
// made memory current) and done runs with stale reporting whether the
// owner still held the block. On a stale ack the former owner retains no
// copy — callers must not record it as a sharer (and e.owner has already
// been cleared by the raced writeback).
func (c *Controller) intervene(block uint64, e *entry, invalidate bool, done func(stale bool)) {
	c.stats.Interventions++
	e.txn = txn{onIvnAck: func(m network.Msg) {
		e.txn = txn{}
		e.txnLive = false
		stale := m.Flags&IvnAckStale != 0
		if !stale {
			c.mem.WriteBlock(block, m.Data)
		}
		done(stale)
	}}
	e.txnLive = true
	flags := uint32(0)
	if invalidate {
		flags = IvnInvalidate
	}
	c.send(network.Msg{
		Kind:  network.KindIntervention,
		Src:   network.Hub(c.p.Node),
		Dst:   c.cpuEndpoint(e.owner),
		Addr:  block,
		Flags: flags,
	})
}

// Intervention flag bits.
const (
	// IvnInvalidate asks the owner to drop the block rather than downgrade.
	IvnInvalidate uint32 = 1 << iota
	// IvnAckStale marks an intervention ack from an owner that no longer
	// held the block (writeback raced ahead).
	IvnAckStale
)

func (c *Controller) applyIvnAck(e *entry, m network.Msg) {
	if !e.txnLive || e.txn.onIvnAck == nil {
		panic("directory: unexpected intervention ack")
	}
	e.txn.onIvnAck(m)
}

func (c *Controller) applyWriteback(e *entry, m network.Msg) {
	block := c.block(m.Addr)
	if e.state == exclusive && e.owner == m.Src.CPU {
		c.mem.WriteBlock(block, m.Data)
		e.state = unowned
		e.owner = 0
		return
	}
	// Stale writeback: the owner was already downgraded or invalidated by an
	// intervention that raced past the writeback; the intervention path
	// carried the same (or newer) data, so drop this one.
}

// --- fine-grained get/put (AMU side) -------------------------------------

// FineGet asks for the coherent value of the word at addr on behalf of the
// local AMU. The AMU becomes a word-granularity sharer. done receives the
// value. May queue behind an in-flight transaction.
func (c *Controller) FineGet(addr uint64, done func(val uint64)) {
	block := c.block(addr)
	c.submit(block, func() {
		e := c.entryOf(block)
		finish := func() {
			e.amuWords |= c.wordBit(addr)
			val := c.mem.ReadWord(addr)
			c.complete(block)
			done(val)
		}
		switch e.state {
		case unowned, shared:
			c.occupy(c.p.DirCycles+c.p.DRAMCycles, finish)
		case exclusive:
			c.intervene(block, e, false, func(stale bool) {
				// As with a GETS intervention, a stale ack means the owner
				// already wrote back and keeps no copy: record no sharer.
				if stale {
					finish()
					return
				}
				e.state = shared
				e.clearSharers()
				e.addSharer(e.owner)
				finish()
			})
		}
	})
}

// FinePut flushes the AMU's current value of the word at addr: memory is
// updated and a word update is pushed to every CPU caching the block. The
// value is read from the AMU at execution time via read; if the AMU no
// longer holds the word (a recall raced ahead), the put is a no-op — the
// recall already flushed, and the recalling transaction's invalidations
// supersede the updates. done runs when the put has been processed.
func (c *Controller) FinePut(addr uint64, read func() (uint64, bool), done func()) {
	j := c.acquireFine()
	j.block, j.addr, j.read, j.done = c.block(addr), addr, read, done
	c.submit(j.block, j.start)
}

// FineDrop records that the AMU evicted its copy of the word at addr after
// flushing it to memory itself (capacity eviction, not recall).
func (c *Controller) FineDrop(addr uint64) {
	c.entryOf(c.block(addr)).amuWords &^= c.wordBit(addr)
}

// FineEvict handles an AMU capacity eviction of a coherent word: the final
// value is written to memory and pushed to sharers exactly like a fine put,
// so spinners waiting on that word are not left holding a stale copy with
// no wake-up coming. The AMU has already dropped its entry; val is the
// evicted value.
func (c *Controller) FineEvict(addr, val uint64) {
	block := c.block(addr)
	c.entryOf(block).amuWords &^= c.wordBit(addr)
	j := c.acquireFine()
	j.block, j.addr, j.val = block, addr, val
	c.submit(block, j.start)
}

// AMUHolds reports whether the AMU is registered for the word at addr.
func (c *Controller) AMUHolds(addr uint64) bool {
	return c.entryOf(c.block(addr)).amuWords&c.wordBit(addr) != 0
}

// Snapshot describes a block's directory record for invariant checking.
type Snapshot struct {
	State    string // "U", "S" or "E"
	Owner    int
	Sharers  []int
	AMUWords []uint64
	Busy     bool
}

// SnapshotOf returns the directory record for the block containing addr.
func (c *Controller) SnapshotOf(addr uint64) Snapshot {
	block := c.block(addr)
	e := c.entryOf(block)
	s := Snapshot{State: e.state.String(), Owner: e.owner, Busy: e.busy}
	s.Sharers = e.sharers.slice()
	s.AMUWords = sortedWords(block, e)
	return s
}

// Sharers returns the CPUs currently recorded as sharing the block at addr,
// in ascending order (for tests and introspection).
func (c *Controller) Sharers(addr uint64) []int {
	return c.entryOf(c.block(addr)).sharers.slice()
}

func (c *Controller) send(m network.Msg) { c.net.Send(m) }
