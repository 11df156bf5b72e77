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
	waitq    sim.FIFO[request] // requests queued behind the busy block
	// txn is the block's transaction while busy; acks and occupancy
	// charges continue it. It is inlined in the entry, so running a
	// transaction never allocates.
	txn txn
}

// op is a transaction's kind: a CPU request or an AMU fine op.
type op uint8

const (
	opGetShared op = iota
	opGetExclusive
	opUpgrade
	opFineGet
	opFinePut
	opFineEvict
)

// request is one transaction as it waits for its block: the CPU request's
// requester, or the fine op's word address, value and callbacks.
type request struct {
	op   op
	src  network.Endpoint      // the requesting CPU
	addr uint64                // the block (CPU requests) or the word (fine ops)
	val  uint64                // fine put/evict: the word's value
	got  func(val uint64)      // fine get: receives the value
	read func() (uint64, bool) // fine put: the AMU's value, read at start
	done func()                // fine put: completion
}

// grant is the record update a data reply installs once its charge ends.
type grant uint8

const (
	grantNone      grant = iota // the record is already up to date
	grantShared                 // the requester joins the sharers
	grantExclusive              // the requester becomes the owner
)

// step is what a transaction's pending occupancy charge resumes.
type step uint8

const (
	stepStart       step = iota // start the next queued request
	stepReply                   // send the block and install the grant
	stepInvalidated             // continue a GETX or upgrade with no sharers left
	stepFineGet                 // hand the word to the AMU
	stepFlush                   // write the fine-put word and push updates
)

// txn is a block's in-flight transaction: its request, what it waits for
// (invalidation acks or an intervention ack) and the step its pending
// occupancy charge resumes.
type txn struct {
	request
	block uint64 // the block addr falls in
	acks  int    // invalidation acks outstanding
	ivn   bool   // an intervention ack is outstanding
	grant grant
	step  step
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
	// scratch is the buffer reply reads a block into; Send copies it, so
	// one buffer serves every reply.
	scratch []uint64

	// chunks is the slab of directory entries, indexed by the block's
	// offset within the node (see entryOf). A chunk is allocated on first
	// touch and never moves, since scheduled steps hold *entry.
	chunks     []*chunk
	base       uint64 // NodeBase(Node)
	blockShift uint   // log2(BlockBytes)

	// stepCall resumes an entry's transaction when its occupancy charge
	// ends; delayCall submits a request the perturber held. Both are bound
	// once, so neither charge nor delay allocates.
	stepCall  func(any)
	delayCall func(any)
	// reqFree recycles the records of perturber-delayed requests.
	reqFree []*dirReq

	perturb  Perturber
	observer func(block uint64)

	stats metrics.DirectoryStats
}

// dirReq holds a CPU request while the perturber delays it.
type dirReq struct{ r request }

func (c *Controller) acquireReq() *dirReq {
	if k := len(c.reqFree) - 1; k >= 0 {
		q := c.reqFree[k]
		c.reqFree = c.reqFree[:k]
		return q
	}
	return new(dirReq)
}

// Perturber injects protocol-legal pressure into the controller — the
// fault-injection hook used by internal/chaos. RequestDelay returns extra
// cycles to hold the CPU request m before it is submitted to its block's
// transaction queue, modeling a NACK-and-retry: the requester's message
// bounces once and comes back later. It is consulted exactly once per
// request (no unbounded re-delay) and only for GETS/GETX/UPGRADE —
// writebacks and acks resolve races and must never be held.
type Perturber interface {
	RequestDelay(m *network.Msg) sim.Time
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
	c := &Controller{
		eng:        eng,
		net:        net,
		mem:        mem,
		p:          p,
		scratch:    make([]uint64, p.BlockBytes/memsys.WordBytes),
		base:       memsys.NodeBase(p.Node),
		blockShift: uint(bits.TrailingZeros(uint(p.BlockBytes))),
	}
	c.stepCall = func(a any) { c.step(a.(*entry)) }
	c.delayCall = func(a any) {
		q := a.(*dirReq)
		r := q.r
		q.r = request{}
		c.reqFree = append(c.reqFree, q)
		c.submit(r)
	}
	return c
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

// occupy charges cycles of directory pipeline (and DRAM) occupancy, then
// resumes e's transaction at next: the utilization gauge counterpart of
// every scheduled latency charge.
func (c *Controller) occupy(cycles uint64, e *entry, next step) {
	c.stats.OccupancyCycles += cycles
	e.txn.step = next
	c.eng.ScheduleCall(sim.Time(cycles), c.stepCall, e)
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
func (c *Controller) Handle(m *network.Msg) {
	e := c.entryOf(c.block(m.Addr))
	switch m.Kind {
	case network.KindWriteback:
		// Never blocked: resolves eviction/intervention races.
		c.applyWriteback(e, m)
	case network.KindInvalidateAck:
		c.applyInvAck(e)
	case network.KindInterventionAck:
		c.applyIvnAck(e, m)
	case network.KindGetShared:
		c.accept(m, opGetShared)
	case network.KindGetExclusive:
		c.accept(m, opGetExclusive)
	case network.KindUpgrade:
		c.accept(m, opUpgrade)
	default:
		panic(fmt.Sprintf("directory: unexpected message %v", m))
	}
}

// accept submits CPU request m, unless the perturber holds it first.
func (c *Controller) accept(m *network.Msg, o op) {
	r := request{op: o, src: m.Src, addr: m.Addr}
	if c.perturb != nil {
		if d := c.perturb.RequestDelay(m); d > 0 {
			q := c.acquireReq()
			q.r = r
			c.eng.ScheduleCall(d, c.delayCall, q)
			return
		}
	}
	c.submit(r)
}

// submit starts r now if its block is idle, otherwise queues it.
func (c *Controller) submit(r request) {
	e := c.entryOf(c.block(r.addr))
	if e.busy {
		e.waitq.Push(r)
		return
	}
	e.busy = true
	c.start(e, r)
}

// complete ends e's transaction and, if a request is queued, starts it
// after the directory's per-transaction occupancy charge. The charge
// matters beyond fidelity: it gives each exclusive grantee a few cycles of
// guaranteed residence before the next queued request's intervention can
// be dispatched, which is what lets an LL/SC pair commit under a full
// request queue instead of livelocking. The queue head cannot change while
// the block is busy, so the request is popped when the charge ends.
func (c *Controller) complete(e *entry) {
	if !e.busy {
		panic("directory: complete on idle block")
	}
	block := e.txn.block
	e.txn = txn{}
	if c.observer != nil {
		c.observer(block)
	}
	if e.waitq.Len() == 0 {
		e.busy = false
		return
	}
	c.occupy(c.p.DirCycles, e, stepStart)
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

// step resumes e's transaction when its occupancy charge ends.
func (c *Controller) step(e *entry) {
	t := &e.txn
	switch t.step {
	case stepStart:
		c.start(e, e.waitq.Pop())
	case stepReply:
		c.reply(e)
	case stepInvalidated:
		c.invalidated(e)
	case stepFineGet:
		c.fineGet(e)
	case stepFlush:
		c.flush(e)
	}
}

// start begins request r on e's block, which is busy.
func (c *Controller) start(e *entry, r request) {
	e.txn = txn{request: r, block: c.block(r.addr)}
	t := &e.txn
	switch r.op {
	case opGetShared:
		switch e.state {
		case unowned, shared:
			// No AMU recall here: shared readers may observe the last
			// fine-put value from memory while the AMU holds a newer one —
			// the paper's release-consistency semantics for AMO variables
			// (§3.2). Recalling on reads would also cancel queued fine-puts
			// without invalidating sharers, losing their wake-up.
			t.grant = grantShared
			c.occupy(c.p.DirCycles+c.p.DRAMCycles, e, stepReply)
		case exclusive:
			c.intervene(e, false /*downgrade*/)
		}
	case opGetExclusive:
		c.grantExclusive(e)
	case opUpgrade:
		// A data-less grant is only safe when no word of the block is
		// AMU-held: sharers may be stale with respect to the AMU's value
		// (release consistency), so a block with AMU words must be
		// recalled and re-supplied as a full GETX.
		if e.state == shared && e.amuWords == 0 && e.hasSharer(r.src.CPU) {
			// True upgrade: invalidate other sharers, grant without data.
			e.removeSharer(r.src.CPU)
			c.invalidateSharers(e)
			return
		}
		// Requester lost its copy while the upgrade was in flight (or the
		// block moved to exclusive): treat as a full GETX.
		t.op = opGetExclusive
		c.grantExclusive(e)
	case opFineGet:
		switch e.state {
		case unowned, shared:
			c.occupy(c.p.DirCycles+c.p.DRAMCycles, e, stepFineGet)
		case exclusive:
			c.intervene(e, false)
		}
	case opFinePut:
		val, ok := r.read()
		if !ok || e.amuWords&c.wordBit(r.addr) == 0 {
			c.complete(e)
			r.done()
			return
		}
		t.val = val
		c.occupy(c.p.DirCycles, e, stepFlush)
	case opFineEvict:
		c.occupy(c.p.DirCycles, e, stepFlush)
	}
}

// grantExclusive implements GETX (and upgrade-turned-GETX).
func (c *Controller) grantExclusive(e *entry) {
	t := &e.txn
	switch e.state {
	case unowned:
		c.recallAMU(e, t.block)
		t.grant = grantExclusive
		c.occupy(c.p.DirCycles+c.p.DRAMCycles, e, stepReply)
	case shared:
		c.recallAMU(e, t.block)
		e.removeSharer(t.src.CPU)
		c.invalidateSharers(e)
	case exclusive:
		if e.owner == t.src.CPU {
			// Owner re-requesting after its own writeback raced this GETX.
			c.occupy(c.p.DirCycles+c.p.DRAMCycles, e, stepReply)
			return
		}
		c.intervene(e, true /*invalidate*/)
	}
}

// reply sends the block, read from memory once the directory and DRAM
// charge has ended, and installs the transaction's grant.
func (c *Controller) reply(e *entry) {
	t := &e.txn
	kind := network.KindDataExclusive
	if t.op == opGetShared {
		kind = network.KindDataShared
	}
	c.mem.ReadBlockInto(t.block, c.scratch)
	c.send(&network.Msg{
		Kind: kind,
		Src:  network.Hub(c.p.Node), Dst: t.src,
		Addr:      t.block,
		DataBytes: c.p.BlockBytes,
		Data:      c.scratch,
	})
	switch t.grant {
	case grantNone:
	case grantShared:
		e.state = shared
		e.addSharer(t.src.CPU)
	case grantExclusive:
		e.state = exclusive
		e.owner = t.src.CPU
	}
	c.complete(e)
}

// invalidateSharers sends INV to every current sharer and waits for their
// acks. With no sharers it continues after the directory occupancy charge.
func (c *Controller) invalidateSharers(e *entry) {
	n := e.sharers.count()
	if n == 0 {
		c.occupy(c.p.DirCycles, e, stepInvalidated)
		return
	}
	e.txn.acks = n
	for it := e.sharers.iter(); ; {
		i, cpu, ok := it.next()
		if !ok {
			break
		}
		c.stats.Invalidations++
		c.sendStaggered(i, &network.Msg{
			Kind: network.KindInvalidate,
			Src:  network.Hub(c.p.Node), Dst: c.cpuEndpoint(cpu),
			Addr: e.txn.block,
		})
	}
	e.clearSharers()
}

// invalidated continues a GETX or a true upgrade once no other CPU holds
// the block: the upgrade is granted without data, the GETX is sent the
// block after the directory and DRAM charge.
func (c *Controller) invalidated(e *entry) {
	t := &e.txn
	if t.op == opUpgrade {
		e.state = exclusive
		e.owner = t.src.CPU
		c.send(&network.Msg{
			Kind: network.KindAckExclusive,
			Src:  network.Hub(c.p.Node), Dst: t.src,
			Addr: t.block,
		})
		c.complete(e)
		return
	}
	t.grant = grantExclusive
	c.occupy(c.p.DirCycles+c.p.DRAMCycles, e, stepReply)
}

// sendStaggered injects the i-th message of a fan-out burst after
// i*InjectCycles, modeling the hub's single network port. With
// MulticastUpdates, word-update bursts leave as one injection.
func (c *Controller) sendStaggered(i int, m *network.Msg) {
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
	if e.txn.acks == 0 {
		panic("directory: unexpected invalidation ack")
	}
	e.txn.acks--
	if e.txn.acks == 0 {
		c.invalidated(e)
	}
}

// intervene sends an intervention to the exclusive owner and waits for its
// ack. If invalidate is true the owner drops the block, otherwise it
// downgrades to Shared.
func (c *Controller) intervene(e *entry, invalidate bool) {
	c.stats.Interventions++
	e.txn.ivn = true
	flags := uint32(0)
	if invalidate {
		flags = IvnInvalidate
	}
	c.send(&network.Msg{
		Kind:  network.KindIntervention,
		Src:   network.Hub(c.p.Node),
		Dst:   c.cpuEndpoint(e.owner),
		Addr:  e.txn.block,
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

// applyIvnAck continues a transaction with the owner's intervention ack:
// memory is updated from the owner's data, unless the owner had already
// written back, in which case the out-of-band writeback made memory
// current. On such a stale ack the former owner retains no copy, and
// e.owner was cleared when the writeback was applied, so it must not be
// recorded as a sharer: a phantom sharer could later be granted a
// data-less upgrade for a line it no longer holds.
func (c *Controller) applyIvnAck(e *entry, m *network.Msg) {
	t := &e.txn
	if !t.ivn {
		panic("directory: unexpected intervention ack")
	}
	t.ivn = false
	stale := m.Flags&IvnAckStale != 0
	if !stale {
		c.mem.WriteBlock(t.block, m.Data)
	}
	switch t.op {
	case opGetShared:
		e.clearSharers()
		e.addSharer(t.src.CPU)
		if !stale {
			e.addSharer(e.owner)
		}
		e.state = shared
		c.occupy(c.p.DirCycles+c.p.DRAMCycles, e, stepReply)
	case opFineGet:
		if !stale {
			e.state = shared
			e.clearSharers()
			e.addSharer(e.owner)
		}
		c.fineGet(e)
	default:
		t.grant = grantExclusive
		c.occupy(c.p.DirCycles+c.p.DRAMCycles, e, stepReply)
	}
}

func (c *Controller) applyWriteback(e *entry, m *network.Msg) {
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
	c.submit(request{op: opFineGet, addr: addr, got: done})
}

// fineGet registers the AMU for the word and hands it the value.
func (c *Controller) fineGet(e *entry) {
	t := &e.txn
	e.amuWords |= c.wordBit(t.addr)
	val := c.mem.ReadWord(t.addr)
	got := t.got
	c.complete(e)
	got(val)
}

// FinePut flushes the AMU's current value of the word at addr: memory is
// updated and a word update is pushed to every CPU caching the block. The
// value is read from the AMU at execution time via read; if the AMU no
// longer holds the word (a recall raced ahead), the put is a no-op — the
// recall already flushed, and the recalling transaction's invalidations
// supersede the updates. done runs when the put has been processed.
func (c *Controller) FinePut(addr uint64, read func() (uint64, bool), done func()) {
	c.submit(request{op: opFinePut, addr: addr, read: read, done: done})
}

// flush writes a fine put's or fine evict's word to memory and pushes it
// to every sharer.
func (c *Controller) flush(e *entry) {
	t := &e.txn
	c.mem.WriteWord(t.addr, t.val)
	for it := e.sharers.iter(); ; {
		i, cpu, ok := it.next()
		if !ok {
			break
		}
		c.stats.WordUpdates++
		c.sendStaggered(i, &network.Msg{
			Kind:      network.KindWordUpdate,
			Src:       network.Hub(c.p.Node),
			Dst:       c.cpuEndpoint(cpu),
			Addr:      t.addr,
			Value:     t.val,
			DataBytes: memsys.WordBytes,
		})
	}
	done := t.done
	c.complete(e)
	if done != nil {
		done()
	}
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
	c.FineDrop(addr)
	c.submit(request{op: opFineEvict, addr: addr, val: val})
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

func (c *Controller) send(m *network.Msg) { c.net.Send(m) }
