// Package core implements the paper's primary contribution: the Active
// Memory Unit (AMU) attached to each node's memory controller.
//
// The AMU executes simple atomic read-modify-write operations — Active
// Memory Operations (AMOs) — at the home node of the target word, so
// synchronization variables never migrate between processor caches. Its
// parts mirror Figure 2 of the paper:
//
//   - a request queue feeding a single function unit (FU);
//   - a tiny operand cache (default 8 words). An AMO that hits in the AMU
//     cache completes in 2 cycles regardless of contention; each cached word
//     supports one outstanding synchronization variable;
//   - coherent operand access through the directory's fine-grained get/put:
//     a miss performs a "fine get" (the AMU becomes a word-grained sharer
//     allowed to mutate the word), and results are propagated by "fine
//     puts" that push word updates into processor caches — either on every
//     operation (amo.fetchadd for locks) or only when the result matches a
//     test value (amo.inc for barriers, firing when the count reaches P).
//
// The same queue, FU and cache also serve conventional memory-side atomic
// operations (MAOs, as in the Cray T3E / SGI Origin): those bypass the
// coherence protocol entirely, operating on memory directly, with uncached
// loads for spinning.
//
// The AMU is also the unit behind each SynCron sync-engine partition
// (internal/syncron): there the operand cache is the partition's bounded
// sync table, and Params.SpillCycles charges the memory write-back of a
// table-full spill. That charge is the one timing difference between the
// two: a fill that displaces a live entry costs OpCycles + SpillCycles
// before the operation executes (0 extra for the paper's AMU, DRAMCycles
// for SynCron).
//
// Built without a directory, the unit serves every request on the MAO
// path. That is each disaggregated-memory node's atomic unit
// (internal/dsm): it has no operand cache either, and zero queue and FU
// cycles, so its one timed stage per operation is the memory access, with
// DRAMCycles set to the remote service latency. A stage that occupies zero
// cycles runs inline rather than as an event.
package core

import (
	"fmt"
	"sort"

	"amosim/internal/directory"
	"amosim/internal/memsys"
	"amosim/internal/metrics"
	"amosim/internal/network"
	"amosim/internal/sim"
)

// Op is an AMO/MAO opcode.
type Op int

// Supported atomic operations. Inc and FetchAdd are the paper's focus;
// the rest are the "wide range of AMO instructions" under consideration
// (§3): exchange/compare-exchange for locks, bitwise ops for flag sets,
// and max for reductions. Eight operations fit the 3-bit op field of the
// instruction encoding (internal/isa).
const (
	OpInc Op = iota
	OpFetchAdd
	OpSwap
	OpCompareSwap
	OpAnd
	OpOr
	OpXor
	OpMax

	numOps
)

var opNames = [...]string{
	OpInc:         "amo.inc",
	OpFetchAdd:    "amo.fetchadd",
	OpSwap:        "amo.swap",
	OpCompareSwap: "amo.cswap",
	OpAnd:         "amo.and",
	OpOr:          "amo.or",
	OpXor:         "amo.xor",
	OpMax:         "amo.max",
}

func (o Op) String() string {
	if o < 0 || o >= numOps {
		return fmt.Sprintf("Op(%d)", int(o))
	}
	return opNames[o]
}

// Valid reports whether o is a defined operation.
func (o Op) Valid() bool { return o >= 0 && o < numOps }

// Apply returns the new value of word for the operation. For OpCompareSwap,
// operand is the new value and test doubles as the expected value.
func (o Op) Apply(word, operand, test uint64) uint64 {
	switch o {
	case OpInc:
		return word + 1
	case OpFetchAdd:
		return word + operand
	case OpSwap:
		return operand
	case OpCompareSwap:
		if word == test {
			return operand
		}
		return word
	case OpAnd:
		return word & operand
	case OpOr:
		return word | operand
	case OpXor:
		return word ^ operand
	case OpMax:
		if operand > word {
			return operand
		}
		return word
	}
	panic(fmt.Sprintf("core: unknown op %d", int(o)))
}

// Request flag bits (Msg.Flags).
const (
	// FlagTest enables the test value: a fine put fires only when the
	// operation result equals Msg.Aux.
	FlagTest uint32 = 1 << iota
	// FlagUpdateAlways pushes a fine put after every operation (the
	// amo.fetchadd behaviour used by locks).
	FlagUpdateAlways
	// FlagMAO marks the request as a conventional memory-side atomic: the
	// operand is accessed uncached, with no coherence interaction.
	FlagMAO
)

// Params configures an AMU.
type Params struct {
	Node        int
	CacheWords  int
	OpCycles    uint64
	QueueCycles uint64
	DRAMCycles  uint64
	// SpillCycles is charged on top of OpCycles when a fill displaced a
	// live operand-cache entry (SynCron's overflow write-back; 0 for the
	// paper's AMU).
	SpillCycles uint64
	// BlockBytes is the coherence block size, used to match cached words
	// to a recalled block. It must be positive.
	BlockBytes int
}

// amuEntry is one word of the AMU operand cache.
type amuEntry struct {
	addr     uint64
	val      uint64
	valid    bool
	coherent bool // obtained via fine get (true) or MAO/uncached (false)
	lru      uint64
}

// finePut is a pooled fine-put request record. Its read/done callbacks are
// bound once at construction and handed to directory.FinePut, so issuing a
// put never allocates: the record returns to its AMU's free list when the
// directory signals completion.
type finePut struct {
	a    *AMU
	addr uint64
	read func() (uint64, bool)
	done func()
}

// uncached is a pooled uncached-access record: what the reply needs of the
// delivered request, kept past the handler's return. The AMU's prebound
// loadReplyCall and storeAckCall finish the access and recycle the record.
type uncached struct {
	src  network.Endpoint
	addr uint64
	val  uint64
	txn  uint64
}

// AMU is one node's active memory unit.
//
// The FU pipeline (dispatch -> start -> execute) is allocation-free in
// steady state: the single in-flight request lives in cur, the pipeline
// stages are package-level functions scheduled with the unit as their
// argument, the request queue is a ring FIFO, and fine puts and uncached
// accesses ride pooled records.
type AMU struct {
	eng sim.Engine
	net *network.Network
	mem *memsys.Memory
	dir *directory.Controller
	p   Params

	cache []amuEntry
	tick  uint64
	// transient marks the zero-word-cache ablation: the single slot is
	// flushed after every operation, so nothing coalesces.
	transient bool
	// overflows counts fills that displaced a live entry.
	overflows uint64

	queue sim.FIFO[network.Msg]
	busy  bool

	// cur is the request owned by the FU pipeline; valid while busy. The
	// stages read it instead of capturing a message.
	cur         network.Msg
	fineGetDone func(val uint64)
	putFree     []*finePut

	loadReplyCall func(any)
	storeAckCall  func(any)
	ucFree        []*uncached

	perturb func(addr uint64)

	stats metrics.AMUStats
}

// New creates an AMU bound to its node's directory controller and memory.
// The caller installs it as the directory's recall port (or wraps it, as
// SynCron's engine does) with dir.SetAMU. With a nil dir the unit has no
// coherent path: every request reads and writes memory directly, as an
// MAO does.
func New(eng sim.Engine, net *network.Network, mem *memsys.Memory, dir *directory.Controller, p Params) *AMU {
	if p.BlockBytes <= 0 {
		panic("core: BlockBytes must be positive")
	}
	words := p.CacheWords
	transient := false
	if words == 0 {
		// Ablation: no operand cache. Keep a single latch slot that is
		// flushed after every operation, so every AMO re-fetches its operand.
		words = 1
		transient = true
	}
	a := &AMU{
		eng: eng, net: net, mem: mem, dir: dir, p: p,
		cache:     make([]amuEntry, words),
		transient: transient,
	}
	a.fineGetDone = func(val uint64) { a.fillAndExecute(val, true) }
	a.loadReplyCall = func(x any) { a.uncachedLoadReply(x.(*uncached)) }
	a.storeAckCall = func(x any) { a.uncachedStoreAck(x.(*uncached)) }
	return a
}

// acquirePut pops a pooled fine-put record (or builds one, binding its
// callbacks exactly once).
func (a *AMU) acquirePut() *finePut {
	if k := len(a.putFree) - 1; k >= 0 {
		p := a.putFree[k]
		a.putFree = a.putFree[:k]
		return p
	}
	p := &finePut{a: a}
	p.read = func() (uint64, bool) {
		if cur := p.a.lookup(p.addr); cur != nil {
			return cur.val, true
		}
		return 0, false
	}
	p.done = func() {
		p.addr = 0
		p.a.putFree = append(p.a.putFree, p)
	}
	return p
}

// Stats returns the AMU's named counters: operations executed, operand
// cache hits, fine puts issued, recalls served, and the queue/FU/DRAM
// occupancy gauge.
func (a *AMU) Stats() metrics.AMUStats { return a.stats }

// Overflows returns how many fills displaced a live operand-cache entry.
func (a *AMU) Overflows() uint64 { return a.overflows }

// Quiesced returns an error if a request is still queued or in flight — at
// quiescence a busy unit means a request leaked.
func (a *AMU) Quiesced() error {
	if a.busy || a.queue.Len() != 0 {
		return fmt.Errorf("core: node %d AMU still busy at quiescence (%d queued)",
			a.p.Node, a.queue.Len())
	}
	return nil
}

// Queued returns how many requests wait behind the function unit.
func (a *AMU) Queued() int { return a.queue.Len() }

// occupy charges cycles of AMU occupancy (queue, function unit or DRAM
// fill) and then runs stage, one of the stage functions below. A stage
// that occupies zero cycles runs inline instead of as an event at delay 0.
func (a *AMU) occupy(cycles uint64, stage func(any)) {
	a.stats.OccupancyCycles += cycles
	if cycles == 0 {
		stage(a)
		return
	}
	a.eng.ScheduleCall(sim.Time(cycles), stage, a)
}

// The pipeline's stage functions take the unit as their argument, so one
// function serves every unit and scheduling a stage allocates nothing.
func dispatchCall(x any) { x.(*AMU).dispatch() }
func startCall(x any)    { x.(*AMU).start() }
func executeCall(x any)  { x.(*AMU).execute() }

// fillMAOCall installs the current request's operand read straight from
// memory.
func fillMAOCall(x any) {
	a := x.(*AMU)
	a.fillAndExecute(a.mem.ReadWord(a.cur.Addr), false)
}

// SetPerturber installs fn, invoked after every completed AMO/MAO operation
// with the operation's word address — the fault-injection hook used by
// internal/chaos to force operand-cache evictions at adversarial moments.
// It runs in event context while the FU still owns the cycle, so anything
// it evicts goes through the normal FineEvict/write-back paths before the
// next request dispatches. Pass nil to disable.
func (a *AMU) SetPerturber(fn func(addr uint64)) { a.perturb = fn }

// CachedWords returns the addresses of every valid operand-cache entry in
// ascending order, for introspection and deterministic chaos victim
// selection.
func (a *AMU) CachedWords() []uint64 {
	var out []uint64
	for i := range a.cache {
		if a.cache[i].valid {
			out = append(out, a.cache[i].addr)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// EvictWord force-evicts the operand-cache entry holding addr through the
// normal eviction path (FineEvict for coherent words, a direct memory
// write-back for MAO words), reporting whether an entry was evicted. Word
// values are conserved: eviction flushes, never discards.
func (a *AMU) EvictWord(addr uint64) bool {
	for i := range a.cache {
		if a.cache[i].valid && a.cache[i].addr == addr {
			a.evict(i)
			return true
		}
	}
	return false
}

// Peek returns the AMU-cached value of addr without touching LRU state,
// for tests and introspection.
func (a *AMU) Peek(addr uint64) (uint64, bool) {
	for i := range a.cache {
		if a.cache[i].valid && a.cache[i].addr == addr {
			return a.cache[i].val, true
		}
	}
	return 0, false
}

// Handle accepts an AMO or MAO request message (and uncached accesses to
// this node's memory). Runs in event context.
func (a *AMU) Handle(m *network.Msg) {
	switch m.Kind {
	case network.KindAMORequest, network.KindMAORequest:
		a.queue.Push(*m)
		a.dispatch()
	case network.KindUncachedLoad:
		a.handleUncachedLoad(m)
	case network.KindUncachedStore:
		a.handleUncachedStore(m)
	default:
		panic(fmt.Sprintf("core: unexpected message %v", m))
	}
}

// dispatch starts the head-of-queue request if the FU is idle.
func (a *AMU) dispatch() {
	if a.busy || a.queue.Len() == 0 {
		return
	}
	a.busy = true
	a.cur = a.queue.Pop()
	a.occupy(a.p.QueueCycles, startCall)
}

// start begins processing a.cur at the FU.
func (a *AMU) start() {
	m := &a.cur
	if e := a.lookup(m.Addr); e != nil {
		a.stats.CacheHits++
		a.occupy(a.p.OpCycles, executeCall)
		return
	}
	// Miss: fetch the operand. MAOs, and every request at a unit without a
	// directory, read memory directly (non-coherent); AMOs perform a
	// coherent fine-grained get through the directory.
	if a.dir == nil || m.Flags&FlagMAO != 0 || m.Kind == network.KindMAORequest {
		a.occupy(a.p.DRAMCycles, fillMAOCall)
		return
	}
	a.dir.FineGet(m.Addr, a.fineGetDone)
}

// execute performs the operation at the FU. The operand may have been
// recalled between start and execute (a racing GETX); in that case restart
// the request, which will re-acquire the word coherently.
func (a *AMU) execute() {
	m := &a.cur
	e := a.lookup(m.Addr)
	if e == nil {
		a.start()
		return
	}
	a.stats.Ops++
	old := e.val
	e.val = Op(m.Op).Apply(old, m.Value, m.Aux)
	a.reply(m, old)

	wantPut := e.coherent &&
		(m.Flags&FlagUpdateAlways != 0 ||
			(m.Flags&FlagTest != 0 && e.val == m.Aux))
	if wantPut {
		a.stats.FinePuts++
		p := a.acquirePut()
		p.addr = m.Addr
		a.dir.FinePut(p.addr, p.read, p.done)
	}
	if a.transient && !wantPut {
		// No operand cache: flush the latch. When a put is pending we keep
		// the latch so the put reads the value; the put path flushes memory
		// itself and FineDrop follows on the next fill's eviction.
		a.evictAddr(m.Addr)
	}
	if a.perturb != nil {
		a.perturb(m.Addr)
	}
	a.busy = false
	a.cur = network.Msg{}
	a.eng.ScheduleCall(0, dispatchCall, a)
}

// evictAddr flushes the entry holding addr, if any.
func (a *AMU) evictAddr(addr uint64) {
	for i := range a.cache {
		if a.cache[i].valid && a.cache[i].addr == addr {
			a.evict(i)
			return
		}
	}
}

func (a *AMU) reply(m *network.Msg, old uint64) {
	kind := network.KindAMOReply
	if m.Kind == network.KindMAORequest {
		kind = network.KindMAOReply
	}
	a.net.Send(&network.Msg{
		Kind:      kind,
		Src:       network.Hub(a.p.Node),
		Dst:       m.Src,
		Addr:      m.Addr,
		Value:     old,
		DataBytes: memsys.WordBytes,
		Txn:       m.Txn,
	})
}

// MaxCacheWords bounds an AMU's operand cache: 32 times the paper's 8
// words. The cache is fully associative, so lookup and fill scan every
// entry on each operation, and New allocates all of them up front.
const MaxCacheWords = 256

// lookup finds a valid AMU cache entry for addr.
func (a *AMU) lookup(addr uint64) *amuEntry {
	for i := range a.cache {
		if a.cache[i].valid && a.cache[i].addr == addr {
			a.tick++
			a.cache[i].lru = a.tick
			return &a.cache[i]
		}
	}
	return nil
}

// fillAndExecute installs the fetched operand of a.cur and schedules the
// operation, charging SpillCycles on top when the fill displaced a live
// entry.
func (a *AMU) fillAndExecute(val uint64, coherent bool) {
	cycles := a.p.OpCycles
	if a.fill(a.cur.Addr, val, coherent) {
		cycles += a.p.SpillCycles
	}
	a.occupy(cycles, executeCall)
}

// fill installs (addr, val), evicting the LRU entry if needed, and reports
// whether it displaced a live entry.
func (a *AMU) fill(addr, val uint64, coherent bool) bool {
	victim, oldest := -1, ^uint64(0)
	for i := range a.cache {
		if !a.cache[i].valid {
			victim = i
			break
		}
		if a.cache[i].lru < oldest {
			oldest = a.cache[i].lru
			victim = i
		}
	}
	spilled := a.cache[victim].valid
	if spilled {
		a.evict(victim)
		a.overflows++
	}
	a.tick++
	a.cache[victim] = amuEntry{addr: addr, val: val, valid: true, coherent: coherent, lru: a.tick}
	return spilled
}

// evict flushes entry i. Coherent entries go through the directory's
// FineEvict so cached sharers receive the final value (a silent flush would
// strand spinners on a stale word); non-coherent (MAO) entries write memory
// directly.
func (a *AMU) evict(i int) {
	e := &a.cache[i]
	if e.coherent {
		a.dir.FineEvict(e.addr, e.val)
	} else {
		a.mem.WriteWord(e.addr, e.val)
	}
	e.valid = false
}

// Recall implements directory.AMUPort: synchronously flush every AMU-held
// word of block into memory and invalidate those entries. The directory
// clears its own amu-sharer bookkeeping.
func (a *AMU) Recall(block uint64) {
	a.stats.Recalls++
	a.FlushBlock(block)
}

// FlushBlock is Recall without the counter: it writes every coherent
// cached word of block back to memory and invalidates it.
func (a *AMU) FlushBlock(block uint64) {
	for i := range a.cache {
		e := &a.cache[i]
		if e.valid && e.coherent && memsys.BlockAddr(e.addr, a.p.BlockBytes) == block {
			a.mem.WriteWord(e.addr, e.val)
			e.valid = false
		}
	}
}

// acquireUncached pops a pooled uncached-access record (or builds one) and
// loads what the reply needs of m into it.
func (a *AMU) acquireUncached(m *network.Msg) *uncached {
	var u *uncached
	if k := len(a.ucFree) - 1; k >= 0 {
		u = a.ucFree[k]
		a.ucFree = a.ucFree[:k]
	} else {
		u = new(uncached)
	}
	*u = uncached{src: m.Src, addr: m.Addr, val: m.Value, txn: m.Txn}
	return u
}

// handleUncachedLoad serves a cache-bypassing load: the AMU cache is checked
// first (it is the authoritative copy for MAO variables), then memory.
func (a *AMU) handleUncachedLoad(m *network.Msg) {
	u := a.acquireUncached(m)
	lat := a.p.OpCycles
	if e := a.lookup(m.Addr); e != nil {
		u.val = e.val
	} else {
		lat = a.p.DRAMCycles
		u.val = a.mem.ReadWord(m.Addr)
	}
	a.stats.OccupancyCycles += lat
	a.eng.ScheduleCall(sim.Time(lat), a.loadReplyCall, u)
}

// uncachedLoadReply sends the value an uncached load read and recycles u.
func (a *AMU) uncachedLoadReply(u *uncached) {
	a.net.Send(&network.Msg{
		Kind:      network.KindUncachedLoadReply,
		Src:       network.Hub(a.p.Node),
		Dst:       u.src,
		Addr:      u.addr,
		Value:     u.val,
		DataBytes: memsys.WordBytes,
		Txn:       u.txn,
	})
	a.ucFree = append(a.ucFree, u)
}

// handleUncachedStore serves a cache-bypassing store (used to initialize
// MAO variables). It updates the AMU cache copy if present.
func (a *AMU) handleUncachedStore(m *network.Msg) {
	if e := a.lookup(m.Addr); e != nil {
		e.val = m.Value
	}
	u := a.acquireUncached(m)
	a.stats.OccupancyCycles += a.p.DRAMCycles
	a.eng.ScheduleCall(sim.Time(a.p.DRAMCycles), a.storeAckCall, u)
}

// uncachedStoreAck writes an uncached store to memory, acknowledges it and
// recycles u.
func (a *AMU) uncachedStoreAck(u *uncached) {
	a.mem.WriteWord(u.addr, u.val)
	a.net.Send(&network.Msg{
		Kind: network.KindUncachedStoreAck,
		Src:  network.Hub(a.p.Node),
		Dst:  u.src,
		Addr: u.addr,
		Txn:  u.txn,
	})
	a.ucFree = append(a.ucFree, u)
}
