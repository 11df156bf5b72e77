package network

import (
	"fmt"

	"amosim/internal/metrics"
	"amosim/internal/sim"
	"amosim/internal/topology"
)

// Handler consumes a delivered message. Handlers run in event context: they
// may schedule work and send messages but must not block. The message is
// the in-flight record's own and valid until the handler returns: a
// handler that keeps anything of it for later copies it first.
type Handler func(*Msg)

// Network delivers messages between endpoints with fat-tree hop latency for
// remote traffic and bus latency for CPU<->local-hub traffic, recording
// traffic statistics as it goes.
//
// The delivery path is allocation-free in steady state: in-flight messages
// live in pooled records recycled after delivery, hop distances are
// computed inline from the two node indices, and handler lookup indexes
// dense slices. Send copies the message, and a block payload into the
// record's own buffer, which the record keeps across reuse; the handler
// then reads the record in place.
type Network struct {
	eng sim.Engine
	// engs[n] is the node-affine engine view for node n; every schedule,
	// clock read and trace emission on behalf of a node goes through its
	// view so the parallel kernel can attribute it to the right shard.
	engs []sim.Engine
	// nodePool[n] indexes the owning shard's message pool and traffic
	// counters: all mutable network state is per-shard, touched only from
	// that shard's event context.
	nodePool []int32
	shards   int

	topo       topology.Topology
	hopCycles  sim.Time
	busCycles  sim.Time
	minPacket  int
	headerSize int

	hubs []Handler
	cpus []Handler // indexed by global CPU id

	// msgs recycle in-flight message records per shard; deliverCall and
	// injectCall are the prebound dispatch adapters, so scheduling a
	// delivery or a deferred injection never allocates.
	msgs        []*msgPool
	deliverCall func(any)
	injectCall  func(any)

	stats   []Stats
	tracing bool
	perturb Perturber
}

// Perturber injects extra, bounded delivery latency into the network — the
// fault-injection hook used by internal/chaos. DeliveryDelay returns the
// extra cycles to add to m's delivery latency (lat is the unperturbed
// value). Implementations must be deterministic functions of their own
// seeded state and the message stream; they must never reorder messages
// whose order the protocol depends on (the chaos layer enforces per-link,
// per-block FIFO by clamping its jitter).
// DeliveryDelay runs in the sending shard's event context; now is that
// shard's clock, and any state the implementation keys by message source
// must be partitioned accordingly.
type Perturber interface {
	DeliveryDelay(m *Msg, lat sim.Time, now sim.Time) sim.Time
}

// Stats accumulates traffic counters. All counters are monotonically
// non-decreasing; diff two snapshots to measure an interval.
type Stats struct {
	// NetMessages counts messages that crossed the network (hops > 0),
	// total and per kind.
	NetMessages       uint64
	NetMessagesByKind [NumKinds]uint64
	// LocalMessages counts CPU<->local-hub messages that never entered the
	// network.
	LocalMessages uint64
	// NetBytes is the sum of packet sizes for network messages.
	NetBytes uint64
	// ByteHops is the sum over network messages of packetBytes x hops — the
	// link-occupancy measure used for the paper's Figure 7 traffic plot.
	ByteHops uint64
	// Hops is the total hop count over network messages.
	Hops uint64
	// TransitCycles is the summed delivery latency of network messages — a
	// link-utilization gauge (concurrent messages accumulate independently).
	TransitCycles uint64
}

// Sub returns s - o, counter by counter.
func (s Stats) Sub(o Stats) Stats {
	d := Stats{
		NetMessages:   s.NetMessages - o.NetMessages,
		LocalMessages: s.LocalMessages - o.LocalMessages,
		NetBytes:      s.NetBytes - o.NetBytes,
		ByteHops:      s.ByteHops - o.ByteHops,
		Hops:          s.Hops - o.Hops,
		TransitCycles: s.TransitCycles - o.TransitCycles,
	}
	for i := range s.NetMessagesByKind {
		d.NetMessagesByKind[i] = s.NetMessagesByKind[i] - o.NetMessagesByKind[i]
	}
	return d
}

// Params configures a Network.
type Params struct {
	HopCycles  uint64
	BusCycles  uint64
	MinPacket  int
	HeaderSize int
}

// New creates a network over the nodes of a topology.
func New(eng sim.Engine, topo topology.Topology, p Params) *Network {
	nodes := topo.Nodes()
	n := &Network{
		eng:        eng,
		hopCycles:  p.HopCycles,
		busCycles:  p.BusCycles,
		minPacket:  p.MinPacket,
		headerSize: p.HeaderSize,
		topo:       topo,
		hubs:       make([]Handler, nodes),
		engs:       make([]sim.Engine, nodes),
		nodePool:   make([]int32, nodes),
		shards:     eng.NumShards(),
	}
	for node := 0; node < nodes; node++ {
		n.engs[node] = eng.ForNode(node)
		n.nodePool[node] = int32(eng.NodeShard(node))
	}
	n.stats = make([]Stats, n.shards)
	for i := 0; i < n.shards; i++ {
		n.msgs = append(n.msgs, &msgPool{})
	}
	n.deliverCall = func(a any) { n.deliver(a.(*flight)) }
	n.injectCall = func(a any) {
		f := a.(*flight)
		n.engs[f.m.Src.Node].ScheduleCallNode(f.m.Dst.Node, n.inject(f), n.deliverCall, f)
	}
	return n
}

// RegisterHub installs the message handler for node n's hub.
func (n *Network) RegisterHub(node int, h Handler) {
	if node < 0 || node >= len(n.hubs) {
		panic(fmt.Sprintf("network: hub %d out of range", node))
	}
	if n.hubs[node] != nil {
		panic(fmt.Sprintf("network: hub %d registered twice", node))
	}
	n.hubs[node] = h
}

// RegisterCPU installs the message handler for global CPU id c.
func (n *Network) RegisterCPU(cpu int, h Handler) {
	if cpu < 0 {
		panic(fmt.Sprintf("network: cpu %d out of range", cpu))
	}
	for cpu >= len(n.cpus) {
		n.cpus = append(n.cpus, nil)
	}
	if n.cpus[cpu] != nil {
		panic(fmt.Sprintf("network: cpu %d registered twice", cpu))
	}
	n.cpus[cpu] = h
}

// Stats returns a snapshot of the traffic counters, summed over shards in
// shard order (a deterministic fold).
func (n *Network) Stats() Stats {
	sum := n.stats[0]
	for _, s := range n.stats[1:] {
		for i := range sum.NetMessagesByKind {
			sum.NetMessagesByKind[i] += s.NetMessagesByKind[i]
		}
		sum.NetMessages += s.NetMessages
		sum.LocalMessages += s.LocalMessages
		sum.NetBytes += s.NetBytes
		sum.ByteHops += s.ByteHops
		sum.Hops += s.Hops
		sum.TransitCycles += s.TransitCycles
	}
	return sum
}

// Metrics converts the traffic counters into the unified metrics form,
// naming per-kind counts by their mnemonic and omitting zero entries.
func (n *Network) Metrics() metrics.NetworkStats {
	s := n.Stats()
	out := metrics.NetworkStats{
		Messages:      s.NetMessages,
		LocalMessages: s.LocalMessages,
		Bytes:         s.NetBytes,
		ByteHops:      s.ByteHops,
		Hops:          s.Hops,
		TransitCycles: s.TransitCycles,
	}
	for k, count := range s.NetMessagesByKind {
		if count != 0 {
			if out.MessagesByKind == nil {
				out.MessagesByKind = make(map[string]uint64)
			}
			out.MessagesByKind[Kind(k).String()] = count
		}
	}
	return out
}

// SetTracing enables (or disables) trace emission: every Send is reported
// through the engine's ordered Emit sink (see Engine.SetEmitSink), which
// delivers records in global event order on both kernels.
func (n *Network) SetTracing(on bool) { n.tracing = on }

// SetPerturber installs a delivery-latency perturber (nil disables). The
// perturbed latency is what the traffic stats record: TransitCycles stays a
// faithful gauge of actual link occupancy under fault injection.
func (n *Network) SetPerturber(p Perturber) { n.perturb = p }

// PacketBytes returns the on-wire size of m: header plus payload, rounded up
// to the minimum packet size.
func (n *Network) PacketBytes(m *Msg) int {
	b := n.headerSize + m.DataBytes
	if b < n.minPacket {
		b = n.minPacket
	}
	return b
}

// Latency returns the delivery latency for a message from src to dst,
// without sending anything.
func (n *Network) Latency(src, dst Endpoint) sim.Time {
	var lat sim.Time
	if !src.IsHub() {
		lat += n.busCycles // CPU -> local hub
	}
	if src.Node != dst.Node {
		lat += sim.Time(n.topo.Hops(src.Node, dst.Node)) * n.hopCycles
	}
	if !dst.IsHub() {
		lat += n.busCycles // hub -> CPU
	}
	return lat
}

// flight is one pooled in-flight message record. buf is the record's own
// copy of a block payload: allocated on the record's first block message
// and kept when the record is reused, so steady-state block traffic
// allocates nothing.
type flight struct {
	m   Msg
	buf []uint64
}

// msgPool is one shard's in-flight record pool, recycled by deliver and
// SendAfter on the owning shard's event context only.
type msgPool struct {
	msgFree []*flight
}

// acquireFlight pops a record from shard sh's pool (or builds one) and
// loads *m into it, copying m.Data into the record's buffer. The stored
// payload has cap == len, so a shorter block never exposes a longer one's
// stale words; nil or empty Data is stored as nil.
func (n *Network) acquireFlight(sh int32, m *Msg) *flight {
	var f *flight
	mp := n.msgs[sh]
	if k := len(mp.msgFree) - 1; k >= 0 {
		f = mp.msgFree[k]
		mp.msgFree = mp.msgFree[:k]
	} else {
		f = new(flight)
	}
	f.m = *m
	f.m.Data = nil
	if w := len(m.Data); w > 0 {
		if cap(f.buf) < w {
			f.buf = make([]uint64, w)
		}
		copy(f.buf, m.Data)
		f.m.Data = f.buf[:w:w]
	}
	return f
}

// releaseFlight clears f's message and returns f, with its buffer, to the
// pool of node's shard.
func (n *Network) releaseFlight(f *flight, node int) {
	f.m = Msg{}
	mp := n.msgs[n.nodePool[node]]
	mp.msgFree = append(mp.msgFree, f)
}

// Send schedules delivery of m after the appropriate latency and records
// traffic. Messages between distinct endpoints on the same node pay bus
// latency only and are counted as local. Send copies *m, payload included,
// so the caller may reuse both as soon as Send returns.
func (n *Network) Send(m *Msg) {
	f := n.acquireFlight(n.nodePool[m.Src.Node], m)
	n.engs[m.Src.Node].ScheduleCallNode(m.Dst.Node, n.inject(f), n.deliverCall, f)
}

// SendAfter injects m into the network delay cycles from now: traffic is
// recorded and delivery latency paid at injection time, exactly as if Send
// were called then. Fan-out bursts use it to model a single hub port
// injecting one packet at a time; the deferred injection reuses the record
// it copied m into, so it allocates nothing. Like Send, it copies *m at the
// call.
func (n *Network) SendAfter(delay sim.Time, m *Msg) {
	if delay == 0 {
		n.Send(m)
		return
	}
	f := n.acquireFlight(n.nodePool[m.Src.Node], m)
	n.engs[m.Src.Node].ScheduleCall(delay, n.injectCall, f)
}

// inject puts f's message on the wire now: it records the traffic, emits
// the trace line and returns the delivery latency, jitter included.
func (n *Network) inject(f *flight) sim.Time {
	m := &f.m
	hops := 0
	var lat sim.Time
	if !m.Src.IsHub() {
		lat += n.busCycles
	}
	if m.Src.Node != m.Dst.Node {
		hops = n.topo.Hops(m.Src.Node, m.Dst.Node)
		lat += sim.Time(hops) * n.hopCycles
	}
	if !m.Dst.IsHub() {
		lat += n.busCycles
	}
	bytes := n.PacketBytes(m)
	eng := n.engs[m.Src.Node]
	if n.perturb != nil {
		lat += n.perturb.DeliveryDelay(m, lat, eng.Now())
	}
	stats := &n.stats[n.nodePool[m.Src.Node]]
	if hops > 0 {
		stats.NetMessages++
		stats.NetMessagesByKind[m.Kind]++
		stats.NetBytes += uint64(bytes)
		stats.ByteHops += uint64(bytes) * uint64(hops)
		stats.Hops += uint64(hops)
		stats.TransitCycles += uint64(lat)
	} else {
		stats.LocalMessages++
	}
	if n.tracing {
		eng.Emit(uint64(eng.Now()), "msg", fmt.Sprintf("%-9s %-10s -> %-10s addr=%#x val=%d (%dB, %d hops)",
			m.Kind, m.Src, m.Dst, m.Addr, m.Value, bytes, hops))
	}
	return lat
}

// deliver runs the destination's handler on f's message, then recycles f
// into the delivering shard's pool: records migrate freely between shards.
// The handler reads the record in place, so the record stays out of the
// pool (and out of the handler's own Sends) until the handler returns.
func (n *Network) deliver(f *flight) {
	dst := f.m.Dst
	var h Handler
	if dst.IsHub() {
		if dst.Node >= 0 && dst.Node < len(n.hubs) {
			h = n.hubs[dst.Node]
		}
	} else if dst.CPU >= 0 && dst.CPU < len(n.cpus) {
		h = n.cpus[dst.CPU]
	}
	if h == nil {
		panic(fmt.Sprintf("network: no handler for %s (msg %s)", dst, f.m))
	}
	h(&f.m)
	n.releaseFlight(f, dst.Node)
}
