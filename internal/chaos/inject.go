package chaos

import (
	"strconv"

	"amosim/internal/core"
	"amosim/internal/machine"
	"amosim/internal/memsys"
	"amosim/internal/network"
	"amosim/internal/sim"
)

// Stats counts what an Injector actually did, for reporting and for tests
// asserting that a chaos level exercised the paths it claims to.
type Stats struct {
	// JitteredMessages had extra delivery latency; JitterCycles is the sum.
	JitteredMessages uint64
	JitterCycles     uint64
	// ClampedMessages drew a jitter that would have overtaken an earlier
	// message on the same (src, dst, block) stream and were held back to
	// its delivery time — the legal-reordering boundary in action.
	ClampedMessages uint64
	// DelayedRequests were held once at the directory (NACK-and-retry).
	DelayedRequests uint64
	// ForcedEvictions counts AMU operand-cache entries flushed by chaos.
	ForcedEvictions uint64
}

// add folds o into s.
func (s *Stats) add(o Stats) {
	s.JitteredMessages += o.JitteredMessages
	s.JitterCycles += o.JitterCycles
	s.ClampedMessages += o.ClampedMessages
	s.DelayedRequests += o.DelayedRequests
	s.ForcedEvictions += o.ForcedEvictions
}

// linkKey identifies one FIFO stream the protocol may depend on: messages
// between the same endpoints about the same block. Jitter across different
// keys is free; within a key it is clamped to preserve order.
type linkKey struct {
	src, dst network.Endpoint
	block    uint64
}

// nodeState is one node's private slice of the injector: RNG streams, FIFO
// clamp ledger and counters. Every hook runs in the event context of the
// node it perturbs (network jitter at the source, request delays and
// evictions at the home), so each node's state is touched only from that
// node's shard and the injector is race-free on the parallel kernel. The
// per-node streams are label-split from the trial seed, so the draw
// sequences are identical on both kernels regardless of how shards
// interleave.
type nodeState struct {
	netRNG, dirRNG, amuRNG *RNG

	// last is the latest delivery time already promised on each FIFO
	// stream originating at this node; later sends on the same stream
	// never deliver earlier.
	last map[linkKey]sim.Time

	stats Stats
}

// Injector perturbs one machine according to a Plan. Create with Attach;
// all state is machine-private and node-partitioned, so concurrent sweep
// points — and concurrent shards within one machine — each touch their own
// state.
type Injector struct {
	plan       Plan
	k          knobs
	blockBytes int
	nodes      []nodeState
}

// Attach hooks an Injector for plan into every layer of m: the network's
// delivery-latency perturber, each directory controller's request-delay
// perturber, and each AMU's after-operation eviction hook. A disabled plan
// installs nothing. Attach before Run; the hooks live for the machine's
// lifetime.
func Attach(m *machine.Machine, plan Plan) *Injector {
	root := NewRNG(plan.Seed)
	inj := &Injector{
		plan:       plan,
		k:          plan.knobs(),
		blockBytes: m.Cfg.BlockBytes,
		nodes:      make([]nodeState, m.Cfg.Nodes()),
	}
	for n := range inj.nodes {
		tag := strconv.Itoa(n)
		inj.nodes[n] = nodeState{
			netRNG: root.Split("net/" + tag),
			dirRNG: root.Split("dir/" + tag),
			amuRNG: root.Split("amu/" + tag),
			last:   make(map[linkKey]sim.Time),
		}
	}
	if !plan.Enabled() {
		return inj
	}
	m.Net.SetPerturber(inj)
	for _, d := range m.Dirs {
		d.SetPerturber(inj)
	}
	for n, a := range m.AMUs {
		n, a := n, a
		a.SetPerturber(func(addr uint64) { inj.afterAMUOp(n, a, addr) })
	}
	return inj
}

// Arm is how an experiment run turns chaos on: it attaches plan's
// injector to m with the strongest invariant check the kernel allows — the
// transition oracle on the sequential kernel, the post-run coherence check
// on the parallel one (the oracle inspects every CPU's cache at transition
// time, which would race across shards) — and returns that check, to run
// once the machine has quiesced. A disabled plan attaches nothing, and its
// check always passes.
func Arm(m *machine.Machine, plan Plan) (check func() error) {
	if !plan.Enabled() {
		return noCheck
	}
	Attach(m, plan)
	if m.Cfg.Engine == "parallel" {
		return m.CheckCoherence
	}
	return Observe(m).Check
}

func noCheck() error { return nil }

// Stats returns what the injector has done so far, folded over nodes in
// node order. Call only while the machine is quiescent.
func (inj *Injector) Stats() Stats {
	var sum Stats
	for i := range inj.nodes {
		sum.add(inj.nodes[i].stats)
	}
	return sum
}

// DeliveryDelay implements network.Perturber: bounded random extra latency,
// clamped so no message overtakes an earlier one on the same (src, dst,
// block) stream. Cross-stream reordering is the interesting (and legal)
// perturbation; same-stream reordering would forge protocol states — an
// invalidation overtaking the data it chases creates a phantom shared line
// no hardware network would produce. Runs in the source node's event
// context; now is that shard's clock.
func (inj *Injector) DeliveryDelay(m *network.Msg, lat sim.Time, now sim.Time) sim.Time {
	ns := &inj.nodes[m.Src.Node]
	var jitter sim.Time
	if inj.k.maxJitter > 0 && ns.netRNG.Below(inj.k.jitterPermille) {
		jitter = sim.Time(ns.netRNG.Uint64() % (inj.k.maxJitter + 1))
	}
	key := linkKey{src: m.Src, dst: m.Dst, block: memsys.BlockAddr(m.Addr, inj.blockBytes)}
	due := now + lat + jitter
	if last, ok := ns.last[key]; ok && due < last {
		ns.stats.ClampedMessages++
		due = last
	}
	ns.last[key] = due
	extra := due - (now + lat)
	if extra > 0 {
		ns.stats.JitteredMessages++
		ns.stats.JitterCycles += uint64(extra)
	}
	return extra
}

// RequestDelay implements directory.Perturber: with probability
// retryPermille a CPU request is held once for a bounded random time, the
// timing signature of a NACKed request retrying. Runs in the home
// directory's event context.
func (inj *Injector) RequestDelay(m *network.Msg) sim.Time {
	ns := &inj.nodes[m.Dst.Node]
	if inj.k.retryPermille == 0 || !ns.dirRNG.Below(inj.k.retryPermille) {
		return 0
	}
	ns.stats.DelayedRequests++
	return sim.Time(inj.k.retryDelay/2 + ns.dirRNG.Uint64()%(inj.k.retryDelay/2+1))
}

// afterAMUOp is the AMU per-operation hook: with probability evictPermille
// it force-evicts a deterministically chosen cached word through the normal
// flush path, attacking the AMU's residence assumptions (a put racing its
// own eviction, spinners fed by FineEvict instead of FinePut). Runs in the
// home AMU's event context.
func (inj *Injector) afterAMUOp(node int, a *core.AMU, _ uint64) {
	ns := &inj.nodes[node]
	if inj.k.evictPermille == 0 || !ns.amuRNG.Below(inj.k.evictPermille) {
		return
	}
	words := a.CachedWords()
	if len(words) == 0 {
		return
	}
	if a.EvictWord(words[ns.amuRNG.Intn(len(words))]) {
		ns.stats.ForcedEvictions++
	}
}
