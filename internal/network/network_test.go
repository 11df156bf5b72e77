package network

import (
	"testing"
	"testing/quick"

	"amosim/internal/sim"
	"amosim/internal/topology"
)

func testNet(t *testing.T, nodes int) (sim.Engine, *Network) {
	t.Helper()
	eng := sim.NewSequential()
	topo, err := topology.NewFatTree(nodes, 8)
	if err != nil {
		t.Fatal(err)
	}
	return eng, New(eng, topo, Params{HopCycles: 100, BusCycles: 16, MinPacket: 32, HeaderSize: 16})
}

func TestLocalDeliveryLatency(t *testing.T) {
	eng, net := testNet(t, 4)
	var at sim.Time
	net.RegisterHub(0, func(m *Msg) { at = eng.Now() })
	net.RegisterCPU(0, func(m *Msg) {})
	net.Send(&Msg{Kind: KindGetShared, Src: CPUAt(0, 0), Dst: Hub(0)})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if at != 16 {
		t.Fatalf("local CPU->hub delivered at %d, want 16 (bus only)", at)
	}
	s := net.Stats()
	if s.NetMessages != 0 || s.LocalMessages != 1 {
		t.Fatalf("stats = %+v, want 0 net / 1 local", s)
	}
}

func TestRemoteDeliveryLatency(t *testing.T) {
	eng, net := testNet(t, 16)
	var at sim.Time
	net.RegisterCPU(3, func(m *Msg) { at = eng.Now() })
	// hub0 -> cpu3 on node 1: nodes 0 and 1 share a router => 2 hops, plus
	// one bus on the CPU side.
	net.Send(&Msg{Kind: KindDataShared, Src: Hub(0), Dst: CPUAt(1, 3), DataBytes: 128})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	want := sim.Time(2*100 + 16)
	if at != want {
		t.Fatalf("delivered at %d, want %d", at, want)
	}
	s := net.Stats()
	if s.NetMessages != 1 {
		t.Fatalf("NetMessages = %d, want 1", s.NetMessages)
	}
	if s.NetBytes != 144 { // 16 header + 128 data
		t.Fatalf("NetBytes = %d, want 144", s.NetBytes)
	}
	if s.ByteHops != 288 {
		t.Fatalf("ByteHops = %d, want 288", s.ByteHops)
	}
	if s.NetMessagesByKind[KindDataShared] != 1 {
		t.Fatalf("per-kind count = %d, want 1", s.NetMessagesByKind[KindDataShared])
	}
}

func TestMinPacketApplied(t *testing.T) {
	_, net := testNet(t, 2)
	got := net.PacketBytes(&Msg{Kind: KindInvalidate}) // 16B header < 32B min
	if got != 32 {
		t.Fatalf("PacketBytes(control) = %d, want 32", got)
	}
	got = net.PacketBytes(&Msg{Kind: KindDataShared, DataBytes: 128})
	if got != 144 {
		t.Fatalf("PacketBytes(block) = %d, want 144", got)
	}
}

func TestLatencySymmetricRemote(t *testing.T) {
	_, net := testNet(t, 64)
	f := func(a, b uint8) bool {
		x, y := int(a)%64, int(b)%64
		return net.Latency(Hub(x), Hub(y)) == net.Latency(Hub(y), Hub(x))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCPUToRemoteCPUPaysTwoBuses(t *testing.T) {
	_, net := testNet(t, 16)
	lat := net.Latency(CPUAt(0, 0), CPUAt(15, 31))
	hops := sim.Time(0)
	topo, _ := topology.NewFatTree(16, 8)
	hops = sim.Time(topo.Hops(0, 15)) * 100
	want := 16 + hops + 16
	if lat != want {
		t.Fatalf("Latency = %d, want %d", lat, want)
	}
}

func TestDuplicateRegistrationPanics(t *testing.T) {
	_, net := testNet(t, 2)
	net.RegisterHub(0, func(*Msg) {})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	net.RegisterHub(0, func(*Msg) {})
}

func TestUnregisteredDestinationPanics(t *testing.T) {
	eng, net := testNet(t, 2)
	net.Send(&Msg{Kind: KindGetShared, Src: Hub(0), Dst: Hub(1)})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	_ = eng.Run()
}

func TestStatsSub(t *testing.T) {
	eng, net := testNet(t, 4)
	net.RegisterHub(1, func(*Msg) {})
	net.Send(&Msg{Kind: KindGetShared, Src: Hub(0), Dst: Hub(1)})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	before := net.Stats()
	net.Send(&Msg{Kind: KindGetExclusive, Src: Hub(0), Dst: Hub(1)})
	net.Send(&Msg{Kind: KindGetExclusive, Src: Hub(0), Dst: Hub(1)})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	d := net.Stats().Sub(before)
	if d.NetMessages != 2 {
		t.Fatalf("diff NetMessages = %d, want 2", d.NetMessages)
	}
	if d.NetMessagesByKind[KindGetExclusive] != 2 || d.NetMessagesByKind[KindGetShared] != 0 {
		t.Fatalf("diff per-kind wrong: %+v", d.NetMessagesByKind)
	}
}

func TestMessageOrderPreservedSameLatency(t *testing.T) {
	eng, net := testNet(t, 4)
	var got []uint64
	net.RegisterHub(1, func(m *Msg) { got = append(got, m.Value) })
	for i := uint64(0); i < 10; i++ {
		net.Send(&Msg{Kind: KindGetShared, Src: Hub(0), Dst: Hub(1), Value: i})
	}
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		if v != uint64(i) {
			t.Fatalf("out-of-order delivery: %v", got)
		}
	}
}

func TestKindStrings(t *testing.T) {
	for k := Kind(0); int(k) < NumKinds; k++ {
		if s := k.String(); s == "" {
			t.Errorf("Kind(%d) has empty name", k)
		}
	}
	if Kind(999).String() != "Kind(999)" {
		t.Errorf("out-of-range kind name = %q", Kind(999).String())
	}
}

func TestEndpointString(t *testing.T) {
	if Hub(3).String() != "hub3" {
		t.Errorf("Hub(3) = %q", Hub(3).String())
	}
	if !Hub(0).IsHub() || CPUAt(0, 1).IsHub() {
		t.Error("IsHub misclassifies")
	}
}
