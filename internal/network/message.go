// Package network models the interconnect of the simulated machine: typed
// messages between endpoints (CPUs and hubs), fat-tree hop latency, local
// bus latency, and traffic accounting (messages, bytes, byte-hops). Send
// copies the message and its block payload into a pooled in-flight record,
// so no buffer changes owner: the sender keeps its own. A handler receives
// a *Msg pointing into that record, valid until the handler returns.
package network

import "fmt"

// Kind identifies the protocol role of a message. The set covers the
// write-invalidate directory protocol, the paper's fine-grained get/put
// update extension, memory-side atomics (MAO), active memory operations
// (AMO), active messages, and uncached accesses.
type Kind int

// Message kinds. The groups mirror the protocol agents that produce them.
const (
	// Directory protocol: CPU -> home directory requests.
	KindGetShared    Kind = iota // read miss: request a shared copy
	KindGetExclusive             // write miss: request an exclusive copy
	KindUpgrade                  // hit in S, need M: request ownership
	KindWriteback                // evict a dirty block back to home

	// Directory protocol: home directory -> CPU responses and demands.
	KindDataShared      // block data, shared grant
	KindDataExclusive   // block data, exclusive grant
	KindAckExclusive    // ownership grant without data (upgrade hit)
	KindInvalidate      // invalidate a cached block
	KindInvalidateAck   // invalidation acknowledgement
	KindIntervention    // downgrade/forward demand to an exclusive owner
	KindInterventionAck // owner's reply carrying the dirty block

	// Fine-grained update extension (paper §3.2).
	KindWordUpdate    // home -> sharer: patch one word in a cached block
	KindWordUpdateAck // sharer -> home acknowledgement

	// Uncached accesses (used by MAO spins and IO-space operations).
	KindUncachedLoad
	KindUncachedLoadReply
	KindUncachedStore
	KindUncachedStoreAck

	// Memory-side atomic operations, T3E/Origin style (uncached).
	KindMAORequest
	KindMAOReply

	// Active memory operations (paper §3).
	KindAMORequest
	KindAMOReply

	// Active messages.
	KindActiveMessage
	KindActiveMessageAck
	KindActiveMessageNack
	KindActiveMessageReply

	kindCount
)

var kindNames = [...]string{
	KindGetShared:          "GETS",
	KindGetExclusive:       "GETX",
	KindUpgrade:            "UPGRADE",
	KindWriteback:          "WB",
	KindDataShared:         "DATA_S",
	KindDataExclusive:      "DATA_X",
	KindAckExclusive:       "ACK_X",
	KindInvalidate:         "INV",
	KindInvalidateAck:      "INV_ACK",
	KindIntervention:       "IVN",
	KindInterventionAck:    "IVN_ACK",
	KindWordUpdate:         "WUPD",
	KindWordUpdateAck:      "WUPD_ACK",
	KindUncachedLoad:       "UC_LD",
	KindUncachedLoadReply:  "UC_LD_R",
	KindUncachedStore:      "UC_ST",
	KindUncachedStoreAck:   "UC_ST_A",
	KindMAORequest:         "MAO_REQ",
	KindMAOReply:           "MAO_RPL",
	KindAMORequest:         "AMO_REQ",
	KindAMOReply:           "AMO_RPL",
	KindActiveMessage:      "AMSG",
	KindActiveMessageAck:   "AMSG_ACK",
	KindActiveMessageNack:  "AMSG_NACK",
	KindActiveMessageReply: "AMSG_RPL",
}

func (k Kind) String() string {
	if k < 0 || int(k) >= len(kindNames) {
		return fmt.Sprintf("Kind(%d)", int(k))
	}
	return kindNames[k]
}

// NumKinds is the number of distinct message kinds, for stats arrays.
const NumKinds = int(kindCount)

// Endpoint names a message source or destination: a hub (CPU == HubPort) or
// a specific CPU on a node.
type Endpoint struct {
	Node int
	CPU  int // global CPU id, or HubPort for the node's hub
}

// HubPort is the CPU field value designating a node's hub.
const HubPort = -1

// Hub returns the hub endpoint of node n.
func Hub(n int) Endpoint { return Endpoint{Node: n, CPU: HubPort} }

// CPUAt returns the endpoint of global CPU c on node n.
func CPUAt(n, c int) Endpoint { return Endpoint{Node: n, CPU: c} }

// IsHub reports whether the endpoint is a hub.
func (e Endpoint) IsHub() bool { return e.CPU == HubPort }

func (e Endpoint) String() string {
	if e.IsHub() {
		return fmt.Sprintf("hub%d", e.Node)
	}
	return fmt.Sprintf("cpu%d@n%d", e.CPU, e.Node)
}

// Msg is one protocol message. Fields beyond Kind/Src/Dst are used by
// whichever agents care about them; unused fields stay zero.
type Msg struct {
	Kind Kind
	Src  Endpoint
	Dst  Endpoint

	// Addr is the physical address the message concerns (block-aligned for
	// block-grained kinds, word-aligned for word-grained kinds).
	Addr uint64
	// Value carries a word operand or result.
	Value uint64
	// Aux carries a second scalar: AMO test values, active-message
	// arguments, invalidation ack counts.
	Aux uint64
	// Op distinguishes sub-operations (AMO/MAO opcode, handler id).
	Op int
	// Flags carries protocol bits (e.g. AMO test-enabled, update-always).
	Flags uint32
	// DataBytes is the payload size used for traffic accounting: 0 for
	// pure control, 8 for word-grained data, BlockBytes for block data.
	DataBytes int
	// Data carries block contents for data-bearing kinds. Send copies it,
	// so the sender keeps its slice. A handler's Data, like the *Msg that
	// holds it, is valid until the handler returns; a receiver that
	// retains the words copies them.
	Data []uint64
	// Txn threads a reply back to the transaction that caused it.
	Txn uint64
}

func (m Msg) String() string {
	return fmt.Sprintf("%s %s->%s addr=%#x val=%d", m.Kind, m.Src, m.Dst, m.Addr, m.Value)
}
