package network

import (
	"slices"
	"testing"

	"amosim/internal/sim"
	"amosim/internal/topology"
)

// Edge paths of the in-flight record pool and the payload copy each record
// carries. The first two tests keep the names of the retired payload
// pool's regressions (a cap-0 buffer shadowing the pool, stale words behind
// a shortened reslice), now asked of the record buffer.

func poolNet(t *testing.T) (sim.Engine, *Network) {
	t.Helper()
	eng := sim.NewSequential()
	topo, err := topology.NewFatTree(16, 8)
	if err != nil {
		t.Fatal(err)
	}
	net := New(eng, topo, Params{HopCycles: 100, BusCycles: 16, MinPacket: 32, HeaderSize: 16})
	for n := 0; n < 16; n++ {
		net.RegisterHub(n, func(*Msg) {})
	}
	return eng, net
}

// recvNet is poolNet plus a handler for CPU 1 that records a copy of each
// delivered payload and checks that its cap equals its len.
func recvNet(t *testing.T) (sim.Engine, *Network, *[][]uint64) {
	t.Helper()
	eng, net := poolNet(t)
	got := new([][]uint64)
	net.RegisterCPU(1, func(m *Msg) {
		if cap(m.Data) != len(m.Data) {
			t.Errorf("delivered Data has len %d, cap %d; want cap == len", len(m.Data), cap(m.Data))
		}
		var c []uint64
		if m.Data != nil {
			c = append([]uint64{}, m.Data...)
		}
		*got = append(*got, c)
	})
	return eng, net, got
}

func seq(base uint64, n int) []uint64 {
	w := make([]uint64, n)
	for i := range w {
		w[i] = base + uint64(i)
	}
	return w
}

// TestReleaseDataZeroCapacity: a nil or empty payload arrives as nil, and a
// block message sent after it, on the same reused record, arrives intact.
func TestReleaseDataZeroCapacity(t *testing.T) {
	eng, net, got := recvNet(t)
	for _, data := range [][]uint64{nil, {}, seq(7, 8), nil, seq(40, 8)} {
		net.Send(&Msg{Kind: KindDataShared, Src: Hub(0), Dst: CPUAt(0, 1), Data: data})
		if err := eng.Run(); err != nil {
			t.Fatal(err)
		}
		if n := len(net.msgs[0].msgFree); n != 1 {
			t.Fatalf("record pool holds %d records, want 1 (the reused record)", n)
		}
	}
	want := [][]uint64{nil, nil, seq(7, 8), nil, seq(40, 8)}
	for i := range want {
		if (want[i] == nil) != ((*got)[i] == nil) || !slices.Equal((*got)[i], want[i]) {
			t.Fatalf("delivery %d: Data = %v, want %v", i, (*got)[i], want[i])
		}
	}
}

// TestReleaseDataZeroLengthReslice: a shorter payload sent on a record that
// carried a longer one delivers exactly its own words, with cap == len, so
// the longer payload's tail is unreachable. A zero-length reslice of a used
// buffer arrives as nil.
func TestReleaseDataZeroLengthReslice(t *testing.T) {
	eng, net, got := recvNet(t)
	long := seq(0xdeadbeef, 8)
	for _, data := range [][]uint64{long, seq(1, 4), long[:0]} {
		net.Send(&Msg{Kind: KindDataShared, Src: Hub(0), Dst: CPUAt(0, 1), Data: data})
		if err := eng.Run(); err != nil {
			t.Fatal(err)
		}
	}
	if n := len(net.msgs[0].msgFree); n != 1 {
		t.Fatalf("record pool holds %d records, want 1 (the reused record)", n)
	}
	if !slices.Equal((*got)[1], seq(1, 4)) {
		t.Fatalf("short payload arrived as %v, want %v", (*got)[1], seq(1, 4))
	}
	if (*got)[2] != nil {
		t.Fatalf("zero-length reslice arrived as %v, want nil", (*got)[2])
	}
}

// TestSendCopiesPayload: the sender overwrites its buffer right after Send,
// and again after SendAfter, and the receiver still sees the words as sent.
func TestSendCopiesPayload(t *testing.T) {
	eng, net, got := recvNet(t)
	b := seq(100, 8)
	net.Send(&Msg{Kind: KindDataShared, Src: Hub(8), Dst: CPUAt(0, 1), Data: b})
	copy(b, seq(200, 8))
	net.SendAfter(50, &Msg{Kind: KindDataShared, Src: Hub(8), Dst: CPUAt(0, 1), Data: b})
	copy(b, seq(300, 8))
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if len(*got) != 2 || !slices.Equal((*got)[0], seq(100, 8)) || !slices.Equal((*got)[1], seq(200, 8)) {
		t.Fatalf("delivered %v, want the words as sent: %v then %v", *got, seq(100, 8), seq(200, 8))
	}
}

// TestHandlerSendKeepsReceivedData: a handler that sends a block message of
// its own still reads the Data it received intact, since its record stays
// out of the pool until the handler returns.
func TestHandlerSendKeepsReceivedData(t *testing.T) {
	eng, net, got := recvNet(t)
	var seen []uint64
	net.RegisterCPU(0, func(m *Msg) {
		for i := 0; i < 3; i++ {
			net.Send(&Msg{Kind: KindWriteback, Src: CPUAt(0, 0), Dst: CPUAt(0, 1), Data: seq(uint64(500+100*i), 8)})
		}
		seen = append([]uint64{}, m.Data...)
	})
	// Warm the pool with delivered records, so a Send inside the handler
	// has recycled records to pop.
	for i := 0; i < 4; i++ {
		net.Send(&Msg{Kind: KindDataShared, Src: Hub(0), Dst: CPUAt(0, 1), Data: seq(9, 8)})
	}
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	net.Send(&Msg{Kind: KindDataShared, Src: Hub(0), Dst: CPUAt(0, 0), Data: seq(1, 8)})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(seen, seq(1, 8)) {
		t.Fatalf("handler read %v after its own Sends, want %v", seen, seq(1, 8))
	}
	if len(*got) != 7 || !slices.Equal((*got)[6], seq(700, 8)) {
		t.Fatalf("handler's Sends delivered %v; want 7 messages, the last %v", *got, seq(700, 8))
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
	net.Send(&Msg{Kind: KindGetShared, Src: Hub(0), Dst: Hub(0)})
	net.Send(&Msg{Kind: KindGetShared, Src: Hub(0), Dst: Hub(8)})
	if err := eng.RunUntil(50); err != sim.ErrDeadline {
		t.Fatalf("RunUntil = %v, want ErrDeadline (remote message in flight)", err)
	}
	if got := len(net.msgs[0].msgFree); got != 1 {
		t.Fatalf("msgFree has %d slot(s) at shutdown, want 1 (the delivered message)", got)
	}
	slot := net.msgs[0].msgFree[0]
	if slot.m.Kind != 0 || slot.m.Data != nil {
		t.Fatalf("recycled slot not zeroed: %+v", slot.m)
	}
	eng.Shutdown()
	net.Send(&Msg{Kind: KindInvalidate, Src: Hub(0), Dst: Hub(0)})
	if got := len(net.msgs[0].msgFree); got != 0 {
		t.Fatalf("Send after Shutdown left %d pooled slot(s), want 0 (reuse)", got)
	}
}
