package network

import (
	"testing"

	"amosim/internal/sim"
	"amosim/internal/topology"
)

// The pooled-message contract: once the record free list and the engine's
// event arena have warmed up, sending and delivering messages — local and
// network-crossing, immediate and deferred, with or without a block
// payload — allocates nothing. Pinned at exactly zero so hot-path
// regressions fail CI.

func allocNet(t *testing.T) (sim.Engine, *Network) {
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
	net.RegisterCPU(0, func(*Msg) {})
	return eng, net
}

func TestSendSteadyStateZeroAlloc(t *testing.T) {
	eng, net := allocNet(t)
	burst := func() {
		for i := 0; i < 32; i++ {
			// Mix local (0->0) and remote (0->i%16) hub traffic.
			net.Send(&Msg{Kind: KindGetShared, Src: CPUAt(0, 0), Dst: Hub(i % 16), Addr: uint64(i)})
			net.SendAfter(sim.Time(i%5), &Msg{Kind: KindInvalidateAck, Src: Hub(i % 16), Dst: Hub(0)})
		}
		if err := eng.Run(); err != nil {
			t.Fatal(err)
		}
	}
	burst() // warm the message pool, event arena, and per-kind counters
	if allocs := testing.AllocsPerRun(100, burst); allocs != 0 {
		t.Fatalf("Send/SendAfter steady state allocates %.1f/op, want 0", allocs)
	}
}

func TestDataPayloadSteadyStateZeroAlloc(t *testing.T) {
	eng, net := allocNet(t)
	b := make([]uint64, 8)
	send := func() {
		for w := range b {
			b[w]++
		}
		// Send copies b into the record's buffer, which the record keeps
		// when it returns to the pool after delivery.
		net.Send(&Msg{Kind: KindDataShared, Src: Hub(1), Dst: CPUAt(0, 0), Data: b})
		net.SendAfter(3, &Msg{Kind: KindWriteback, Src: CPUAt(0, 0), Dst: Hub(1), Data: b})
		if err := eng.Run(); err != nil {
			t.Fatal(err)
		}
	}
	send()
	if allocs := testing.AllocsPerRun(100, send); allocs != 0 {
		t.Fatalf("data payload path allocates %.1f/op, want 0", allocs)
	}
}
