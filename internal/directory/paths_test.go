package directory

import (
	"fmt"
	"strings"
	"testing"

	"amosim/internal/network"
	"amosim/internal/sim"
)

// transcript records, in event order, every message the rig's network
// sends (one trace line each, stamped with its send cycle) and every
// message a fake CPU receives (stamped with its delivery cycle).
type transcript struct {
	lines []string
}

// record enables tracing on r and returns the transcript it fills.
func (r *rig) record() *transcript {
	tr := &transcript{}
	r.eng.SetEmitSink(func(cycle uint64, _, what string) {
		tr.lines = append(tr.lines, fmt.Sprintf("%4d send %s", cycle, strings.Join(strings.Fields(what), " ")))
	})
	r.net.SetTracing(true)
	for _, f := range r.cpus {
		f.onRecv = func(m *network.Msg) {
			tr.lines = append(tr.lines, fmt.Sprintf("%4d recv cpu%d %s", r.eng.Now(), f.id, m.Kind))
		}
	}
	return tr
}

func (tr *transcript) check(t *testing.T, want string) {
	t.Helper()
	got := strings.Join(tr.lines, "\n")
	if want = strings.Trim(want, "\n"); got != want {
		t.Errorf("transcript:\n%s\nwant:\n%s", got, want)
	}
}

func checkSnapshot(t *testing.T, got Snapshot, want string) {
	t.Helper()
	if s := fmt.Sprintf("%+v", got); s != want {
		t.Errorf("snapshot = %s, want %s", s, want)
	}
}

// delayFirst holds the first request it sees for d cycles.
type delayFirst struct {
	d    sim.Time
	seen int
}

func (p *delayFirst) RequestDelay(*network.Msg) sim.Time {
	p.seen++
	if p.seen == 1 {
		return p.d
	}
	return 0
}

// TestPerturberDelayedRequestQueues holds CPU 1's GETS for 50 cycles: it
// reaches the block while CPU 0's GETX is in service, queues behind it,
// and is served by a downgrade intervention once the GETX completes.
func TestPerturberDelayedRequestQueues(t *testing.T) {
	r := newRig(t, 2)
	addr := r.mem.AllocWord(0)
	p := &delayFirst{d: 50}
	r.ctrl.SetPerturber(p)
	tr := r.record()
	r.cpus[0].dirty = words(16, 5)
	r.request(1, network.KindGetShared, addr)
	r.request(0, network.KindGetExclusive, addr)
	r.run(t)
	if p.seen != 2 {
		t.Fatalf("perturber consulted %d times, want 2", p.seen)
	}
	tr.check(t, `
   0 send GETS cpu1@n0 -> hub0 addr=0x0 val=0 (32B, 0 hops)
   0 send GETX cpu0@n0 -> hub0 addr=0x0 val=0 (32B, 0 hops)
  84 send DATA_X hub0 -> cpu0@n0 addr=0x0 val=0 (144B, 0 hops)
  92 send IVN hub0 -> cpu0@n0 addr=0x0 val=0 (32B, 0 hops)
 100 recv cpu0 DATA_X
 108 recv cpu0 IVN
 108 send IVN_ACK cpu0@n0 -> hub0 addr=0x0 val=0 (144B, 0 hops)
 192 send DATA_S hub0 -> cpu1@n0 addr=0x0 val=0 (144B, 0 hops)
 208 recv cpu1 DATA_S
`)
	checkSnapshot(t, r.ctrl.SnapshotOf(addr), "{State:S Owner:0 Sharers:[0 1] AMUWords:[] Busy:false}")
	if got := r.mem.ReadWord(addr); got != 5 {
		t.Errorf("memory = %d, want 5 (the owner's dirty data)", got)
	}
}

// TestObserverSeesEveryCompletion records the observer's calls for three
// queued transactions: each sees the record its transaction installed,
// with the block still busy.
func TestObserverSeesEveryCompletion(t *testing.T) {
	r := newRig(t, 4)
	addr := r.mem.AllocWord(0)
	var calls []string
	r.ctrl.SetObserver(func(block uint64) {
		if block != addr {
			t.Errorf("observer block %#x, want %#x", block, addr)
		}
		calls = append(calls, fmt.Sprintf("%d %+v", r.eng.Now(), r.ctrl.SnapshotOf(block)))
	})
	tr := r.record()
	r.request(1, network.KindGetShared, addr)
	r.request(2, network.KindGetShared, addr)
	r.request(3, network.KindGetExclusive, addr)
	r.run(t)
	tr.check(t, `
   0 send GETS cpu1@n0 -> hub0 addr=0x0 val=0 (32B, 0 hops)
   0 send GETS cpu2@n1 -> hub0 addr=0x0 val=0 (32B, 2 hops)
   0 send GETX cpu3@n1 -> hub0 addr=0x0 val=0 (32B, 2 hops)
  84 send DATA_S hub0 -> cpu1@n0 addr=0x0 val=0 (144B, 0 hops)
 100 recv cpu1 DATA_S
 284 send DATA_S hub0 -> cpu2@n1 addr=0x0 val=0 (144B, 2 hops)
 292 send INV hub0 -> cpu1@n0 addr=0x0 val=0 (32B, 0 hops)
 296 send INV hub0 -> cpu2@n1 addr=0x0 val=0 (32B, 2 hops)
 308 recv cpu1 INV
 308 send INV_ACK cpu1@n0 -> hub0 addr=0x0 val=0 (32B, 0 hops)
 500 recv cpu2 DATA_S
 512 recv cpu2 INV
 512 send INV_ACK cpu2@n1 -> hub0 addr=0x0 val=0 (32B, 2 hops)
 796 send DATA_X hub0 -> cpu3@n1 addr=0x0 val=0 (144B, 2 hops)
1012 recv cpu3 DATA_X
`)
	checkSnapshot(t, r.ctrl.SnapshotOf(addr), "{State:E Owner:3 Sharers:[] AMUWords:[] Busy:false}")
	want := []string{
		"84 {State:S Owner:0 Sharers:[1] AMUWords:[] Busy:true}",
		"284 {State:S Owner:0 Sharers:[1 2] AMUWords:[] Busy:true}",
		"796 {State:E Owner:3 Sharers:[] AMUWords:[] Busy:true}",
	}
	if got := strings.Join(calls, "\n"); got != strings.Join(want, "\n") {
		t.Errorf("observer calls:\n%s\nwant:\n%s", got, strings.Join(want, "\n"))
	}
}

// TestFineGetStaleInterventionAck: the owner's writeback reaches the home
// while the fine get's intervention is in flight, so the owner answers
// with a stale ack. The fine get reads the written-back value and records
// no sharer.
func TestFineGetStaleInterventionAck(t *testing.T) {
	r := newRig(t, 2)
	addr := r.mem.AllocWord(0)
	r.request(0, network.KindGetExclusive, addr)
	r.run(t)
	tr := r.record()
	var got uint64
	var at sim.Time
	r.ctrl.FineGet(addr, func(v uint64) { got, at = v, r.eng.Now() })
	r.net.Send(&network.Msg{
		Kind: network.KindWriteback,
		Src:  network.Endpoint{Node: 0, CPU: 0},
		Dst:  network.Hub(0),
		Addr: addr,
		Data: words(16, 444), DataBytes: 128,
	})
	r.run(t)
	if got != 444 || at != 132 {
		t.Errorf("FineGet = %d at cycle %d, want 444 at cycle 132", got, at)
	}
	tr.check(t, `
 100 send IVN hub0 -> cpu0@n0 addr=0x0 val=0 (32B, 0 hops)
 100 send WB cpu0@n0 -> hub0 addr=0x0 val=0 (144B, 0 hops)
 116 recv cpu0 IVN
 116 send IVN_ACK cpu0@n0 -> hub0 addr=0x0 val=0 (32B, 0 hops)
`)
	checkSnapshot(t, r.ctrl.SnapshotOf(addr), "{State:U Owner:0 Sharers:[] AMUWords:[0] Busy:false}")
}

// TestMulticastWordUpdates: with MulticastUpdates a fine put's word-update
// burst leaves the hub in one injection; without it the i-th update leaves
// i*InjectCycles later.
func TestMulticastWordUpdates(t *testing.T) {
	for _, c := range []struct {
		multicast bool
		want      string
	}{
		{false, `
 596 send WUPD hub0 -> cpu0@n0 addr=0x0 val=9 (32B, 0 hops)
 600 send WUPD hub0 -> cpu1@n0 addr=0x0 val=9 (32B, 0 hops)
 604 send WUPD hub0 -> cpu2@n1 addr=0x0 val=9 (32B, 2 hops)
 608 send WUPD hub0 -> cpu3@n1 addr=0x0 val=9 (32B, 2 hops)
 612 recv cpu0 WUPD
 616 recv cpu1 WUPD
 820 recv cpu2 WUPD
 824 recv cpu3 WUPD`},
		{true, `
 596 send WUPD hub0 -> cpu0@n0 addr=0x0 val=9 (32B, 0 hops)
 596 send WUPD hub0 -> cpu1@n0 addr=0x0 val=9 (32B, 0 hops)
 596 send WUPD hub0 -> cpu2@n1 addr=0x0 val=9 (32B, 2 hops)
 596 send WUPD hub0 -> cpu3@n1 addr=0x0 val=9 (32B, 2 hops)
 612 recv cpu0 WUPD
 612 recv cpu1 WUPD
 812 recv cpu2 WUPD
 812 recv cpu3 WUPD`},
	} {
		r := newRigWith(t, 4, func(p *Params) { p.MulticastUpdates = c.multicast })
		addr := r.mem.AllocWord(0)
		for cpu := 0; cpu < 4; cpu++ {
			r.request(cpu, network.KindGetShared, addr)
		}
		r.ctrl.FineGet(addr, func(uint64) {})
		r.run(t)
		tr := r.record()
		r.ctrl.FinePut(addr, func() (uint64, bool) { return 9, true }, func() {})
		r.run(t)
		tr.check(t, c.want)
		checkSnapshot(t, r.ctrl.SnapshotOf(addr), "{State:S Owner:0 Sharers:[0 1 2 3] AMUWords:[0] Busy:false}")
		if got := r.mem.ReadWord(addr); got != 9 {
			t.Errorf("multicast=%v: memory = %d, want 9", c.multicast, got)
		}
	}
}

// TestUnexpectedAckPanics: an invalidation or intervention ack that no
// transaction waits for is a protocol bug, on an idle block and on a block
// whose transaction waits for the other kind of ack.
func TestUnexpectedAckPanics(t *testing.T) {
	ack := func(kind network.Kind, addr uint64) *network.Msg {
		return &network.Msg{Kind: kind, Src: network.Endpoint{Node: 0, CPU: 1}, Dst: network.Hub(0), Addr: addr}
	}
	for _, c := range []struct {
		name  string
		setup func(r *rig, addr uint64)
		kind  network.Kind
		want  string
	}{
		{"inv-ack/idle", func(*rig, uint64) {}, network.KindInvalidateAck, "directory: unexpected invalidation ack"},
		{"ivn-ack/idle", func(*rig, uint64) {}, network.KindInterventionAck, "directory: unexpected intervention ack"},
		{"inv-ack/awaiting-ivn-ack", func(r *rig, addr uint64) {
			r.request(0, network.KindGetExclusive, addr)
			r.run(t)
			r.ctrl.FineGet(addr, func(uint64) {})
		}, network.KindInvalidateAck, "directory: unexpected invalidation ack"},
		{"ivn-ack/awaiting-inv-acks", func(r *rig, addr uint64) {
			r.request(0, network.KindGetShared, addr)
			r.request(1, network.KindGetShared, addr)
			r.run(t)
			r.ctrl.Handle(&network.Msg{Kind: network.KindGetExclusive, Src: network.Endpoint{Node: 1, CPU: 2}, Dst: network.Hub(0), Addr: addr})
		}, network.KindInterventionAck, "directory: unexpected intervention ack"},
	} {
		t.Run(c.name, func(t *testing.T) {
			r := newRig(t, 3)
			addr := r.mem.AllocWord(0)
			c.setup(r, addr)
			defer func() {
				if msg, _ := recover().(string); msg != c.want {
					t.Errorf("panic %q, want %q", msg, c.want)
				}
			}()
			r.ctrl.Handle(ack(c.kind, addr))
		})
	}
}
