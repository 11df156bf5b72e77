package directory

import (
	"testing"

	"amosim/internal/network"
)

// quietCPU is a cache-side endpoint that records nothing: it acks
// invalidations and answers interventions with its block words, so a
// transaction's own allocations are all a measurement sees.
type quietCPU struct {
	id    int
	net   *network.Network
	words []uint64
}

func (q *quietCPU) handle(m *network.Msg) {
	src := network.Endpoint{Node: q.id / 2, CPU: q.id}
	switch m.Kind {
	case network.KindInvalidate:
		q.net.Send(&network.Msg{Kind: network.KindInvalidateAck, Src: src, Dst: m.Src, Addr: m.Addr})
	case network.KindIntervention:
		q.net.Send(&network.Msg{
			Kind: network.KindInterventionAck, Src: src, Dst: m.Src, Addr: m.Addr,
			Data: q.words, DataBytes: len(q.words) * 8,
		})
	}
}

// TestDirectorySteadyStateZeroAlloc pins the directory's transaction paths
// at zero allocations once warm: each transaction runs from the record in
// its block's entry, resumed by one prebound call.
func TestDirectorySteadyStateZeroAlloc(t *testing.T) {
	got := func(uint64) {}
	read := func() (uint64, bool) { return 7, true }
	done := func() {}
	for _, c := range []struct {
		name string
		ops  func(r *rig, addr uint64)
	}{
		{"GETS from memory", func(r *rig, addr uint64) {
			r.request(1, network.KindGetShared, addr)
		}},
		{"GETX invalidating a sharer, then GETS downgrading the owner", func(r *rig, addr uint64) {
			r.request(0, network.KindGetExclusive, addr)
			r.run(t)
			r.request(1, network.KindGetShared, addr)
		}},
		{"true upgrade, then GETS downgrading the owner", func(r *rig, addr uint64) {
			r.request(0, network.KindUpgrade, addr)
			r.run(t)
			r.request(1, network.KindGetShared, addr)
		}},
		{"FineGet, FinePut, FineEvict", func(r *rig, addr uint64) {
			r.ctrl.FineGet(addr, got)
			r.run(t)
			r.ctrl.FinePut(addr, read, done)
			r.run(t)
			r.ctrl.FineEvict(addr, 9)
		}},
	} {
		r := newRig(t, 0)
		for i := 0; i < 4; i++ {
			q := &quietCPU{id: i, net: r.net, words: words(16, uint64(i))}
			r.net.RegisterCPU(i, q.handle)
		}
		addr := r.mem.AllocWord(0)
		r.request(0, network.KindGetShared, addr)
		r.request(1, network.KindGetShared, addr)
		r.run(t)
		op := func() {
			c.ops(r, addr)
			r.run(t)
		}
		op() // warm the record pools, the event arena and the sharer set
		if allocs := testing.AllocsPerRun(100, op); allocs != 0 {
			t.Errorf("%s: allocates %.1f/op, want 0", c.name, allocs)
		}
		if s := r.ctrl.SnapshotOf(addr); s.State != "S" || len(s.Sharers) != 2 || s.Busy {
			t.Errorf("%s: record %+v after the runs, want S with sharers [0 1]", c.name, s)
		}
	}
}
