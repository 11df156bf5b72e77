package metrics

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

func sample(scale uint64) Snapshot {
	return Snapshot{
		Cycle: 100 * scale,
		CPUs: []CPUMetrics{
			{
				ID: 0, Node: 0,
				Counters: CPUStats{SCFailures: 1 * scale, AmsgNacks: 2 * scale, AmsgRetries: 2 * scale, AmsgServed: 3 * scale},
				Cache:    CacheStats{Hits: 10 * scale, Misses: 4 * scale, Evictions: 1 * scale},
				Cycles:   CycleBreakdown{Compute: 30 * scale, MemoryStall: 50 * scale, SpinIdle: 20 * scale, Total: 100 * scale},
			},
			{
				ID: 1, Node: 0,
				Cycles: CycleBreakdown{Compute: 100 * scale, Total: 100 * scale},
			},
		},
		Nodes: []NodeMetrics{
			{
				Node:      0,
				Directory: DirectoryStats{Interventions: 5 * scale, Invalidations: 6 * scale, WordUpdates: 7 * scale, OccupancyCycles: 40 * scale},
				AMU:       AMUStats{Ops: 8 * scale, CacheHits: 3 * scale, FinePuts: 2 * scale, Recalls: 1 * scale, OccupancyCycles: 9 * scale},
			},
		},
		Memory: MemoryStats{Reads: 11 * scale, Writes: 12 * scale},
		Network: NetworkStats{
			Messages: 20 * scale, LocalMessages: 2 * scale, Bytes: 320 * scale,
			ByteHops: 960 * scale, Hops: 60 * scale, TransitCycles: 400 * scale,
			MessagesByKind: map[string]uint64{"GETS": 12 * scale, "AMO": 8 * scale},
		},
	}
}

func TestDiff(t *testing.T) {
	d := sample(3).Diff(sample(1))
	want := sample(2)
	if d.Cycle != want.Cycle {
		t.Errorf("Cycle = %d, want %d", d.Cycle, want.Cycle)
	}
	if d.CPUs[0] != want.CPUs[0] || d.CPUs[1] != want.CPUs[1] {
		t.Errorf("CPUs diff = %+v, want %+v", d.CPUs, want.CPUs)
	}
	if d.Nodes[0] != want.Nodes[0] {
		t.Errorf("Nodes diff = %+v, want %+v", d.Nodes, want.Nodes)
	}
	if d.Memory != want.Memory {
		t.Errorf("Memory diff = %+v, want %+v", d.Memory, want.Memory)
	}
	if d.Network.Messages != want.Network.Messages || d.Network.TransitCycles != want.Network.TransitCycles {
		t.Errorf("Network diff = %+v, want %+v", d.Network, want.Network)
	}
	if d.Network.MessagesByKind["GETS"] != 24 || d.Network.MessagesByKind["AMO"] != 16 {
		t.Errorf("MessagesByKind diff = %v", d.Network.MessagesByKind)
	}
	if err := d.CheckConservation(); err != nil {
		t.Errorf("diff of conserving snapshots must conserve: %v", err)
	}
}

func TestDiffDropsZeroKinds(t *testing.T) {
	a := sample(1)
	b := sample(1)
	b.Network.MessagesByKind = map[string]uint64{"GETS": 12, "AMO": 8, "GETX": 5}
	b.Network.Messages += 5
	d := b.Diff(a)
	if _, ok := d.Network.MessagesByKind["GETS"]; ok {
		t.Errorf("zero-delta kind survived the diff: %v", d.Network.MessagesByKind)
	}
	if d.Network.MessagesByKind["GETX"] != 5 {
		t.Errorf("new kind lost in diff: %v", d.Network.MessagesByKind)
	}
}

func TestDiffShapeMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Diff of mismatched snapshots did not panic")
		}
	}()
	small := sample(1)
	small.CPUs = small.CPUs[:1]
	sample(1).Diff(small)
}

func TestCheckConservation(t *testing.T) {
	s := sample(1)
	if err := s.CheckConservation(); err != nil {
		t.Fatalf("conserving snapshot rejected: %v", err)
	}
	s.CPUs[1].Cycles.SpinIdle++
	err := s.CheckConservation()
	if err == nil {
		t.Fatal("non-conserving snapshot accepted")
	}
	if !strings.Contains(err.Error(), "cpu 1") {
		t.Errorf("error does not name the offending CPU: %v", err)
	}
}

func TestAttribution(t *testing.T) {
	a := sample(1).Attribution()
	want := Attribution{
		Compute: 130, MemoryStall: 50, SpinIdle: 20, TotalCPUCycles: 200,
		NetworkTransit: 400, DirectoryOccupancy: 40, AMUOccupancy: 9,
	}
	if a != want {
		t.Errorf("Attribution = %+v, want %+v", a, want)
	}
}

// TestJSONDeterminism pins the byte-identical encoding: two independently
// built equal snapshots (map insertion order deliberately different) must
// marshal to the same bytes, and the encoding must round-trip.
func TestJSONDeterminism(t *testing.T) {
	a := sample(1)
	b := sample(1)
	b.Network.MessagesByKind = map[string]uint64{"AMO": 8, "GETS": 12} // reversed insertion
	ja, err := json.MarshalIndent(a, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	jb, err := json.MarshalIndent(b, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ja, jb) {
		t.Errorf("equal snapshots marshal differently:\n%s\nvs\n%s", ja, jb)
	}
	var back Snapshot
	if err := json.Unmarshal(ja, &back); err != nil {
		t.Fatal(err)
	}
	jc, err := json.MarshalIndent(back, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ja, jc) {
		t.Errorf("snapshot JSON does not round-trip:\n%s\nvs\n%s", ja, jc)
	}
}
