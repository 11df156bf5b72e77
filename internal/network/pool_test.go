package network

import (
	"testing"

	"amosim/internal/sim"
	"amosim/internal/topology"
)

// Edge paths of the payload and message pools, found while writing the
// amolint lifecycle pass.

func poolNet(t *testing.T) (sim.Engine, *Network) {
	t.Helper()
	eng := sim.NewEngine()
	topo, err := topology.NewFatTree(16, 8)
	if err != nil {
		t.Fatal(err)
	}
	net := New(eng, topo.HopTable(), Params{HopCycles: 100, BusCycles: 16, MinPacket: 32, HeaderSize: 16})
	for n := 0; n < 16; n++ {
		net.RegisterHub(n, func(Msg) {})
	}
	return eng, net
}

// TestReleaseDataZeroCapacity pins the pool-top invariant: releasing a
// zero-capacity buffer (nil or empty) must not poison the pool. AcquireData
// pops only the top entry, so a cap-0 entry there would shadow the pool
// from every nonzero-size request.
func TestReleaseDataZeroCapacity(t *testing.T) {
	_, net := poolNet(t)
	net.ReleaseData(nil)
	net.ReleaseData([]uint64{})
	if got := len(net.pools[0].dataFree); got != 0 {
		t.Fatalf("zero-capacity release pooled %d buffer(s), want 0", got)
	}
	// A useful buffer released after the zero-cap ones must still be
	// reusable from the top of the pool.
	b := net.AcquireData(8)
	net.ReleaseData(b)
	net.ReleaseData(nil)
	if got := net.AcquireData(8); cap(got) != cap(b) {
		t.Fatalf("AcquireData(8) after nil release got cap %d, want pooled cap %d", cap(got), cap(b))
	}
}

// TestReleaseDataZeroLengthReslice releases a shortened reslice of an
// acquired buffer: the pool must zero the full capacity, so the next
// acquire of the original size sees no stale words.
func TestReleaseDataZeroLengthReslice(t *testing.T) {
	_, net := poolNet(t)
	b := net.AcquireData(8)
	for i := range b {
		b[i] = 0xdeadbeef + uint64(i)
	}
	net.ReleaseData(b[:0])
	if got := len(net.pools[0].dataFree); got != 1 {
		t.Fatalf("zero-length release with capacity pooled %d buffer(s), want 1", got)
	}
	got := net.AcquireData(8)
	if len(got) != 8 {
		t.Fatalf("AcquireData(8) returned len %d", len(got))
	}
	for i, w := range got {
		if w != 0 {
			t.Fatalf("reacquired buffer word %d = %#x, want 0 (stale payload leaked through the pool)", i, w)
		}
	}
	if len(net.pools[0].dataFree) != 0 {
		t.Fatalf("reacquire did not pop the pooled buffer (pool poisoned?)")
	}
}

// TestMsgFreeReuseAfterShutdown pins the message pool across an engine
// shutdown: slots recycled by deliveries stay valid and zeroed, in-flight
// slots are simply dropped with the engine, and a Send issued immediately
// after Shutdown reuses the recycled slot rather than allocating garbage.
func TestMsgFreeReuseAfterShutdown(t *testing.T) {
	eng, net := poolNet(t)
	// One zero-latency local delivery (recycles its slot) and one remote
	// delivery still in flight at the deadline.
	net.Send(Msg{Kind: KindGetShared, Src: Hub(0), Dst: Hub(0)})
	net.Send(Msg{Kind: KindGetShared, Src: Hub(0), Dst: Hub(8)})
	if err := eng.RunUntil(50); err != sim.ErrDeadline {
		t.Fatalf("RunUntil = %v, want ErrDeadline (remote message in flight)", err)
	}
	if got := len(net.msgs[0].msgFree); got != 1 {
		t.Fatalf("msgFree has %d slot(s) at shutdown, want 1 (the delivered message)", got)
	}
	slot := net.msgs[0].msgFree[0]
	if slot.Kind != 0 || slot.Data != nil || slot.DataOwned {
		t.Fatalf("recycled slot not zeroed: %+v", *slot)
	}
	eng.Shutdown()
	net.Send(Msg{Kind: KindInvalidate, Src: Hub(0), Dst: Hub(0)})
	if got := len(net.msgs[0].msgFree); got != 0 {
		t.Fatalf("Send after Shutdown left %d pooled slot(s), want 0 (reuse)", got)
	}
}
