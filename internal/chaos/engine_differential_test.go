package chaos

import (
	"fmt"
	"reflect"
	"testing"

	"amosim/internal/config"
	"amosim/internal/machine"
	"amosim/internal/syncprim"
)

// sameOnBothKernels runs s on the sequential kernel and again on the
// parallel kernel at shards, and demands the identical trace digest, run
// length, functional outcome and injector stats. The digest hashes the full
// message trace, so a single reordered event anywhere in the run fails.
// Transitions is the one field excluded: the transition oracle reads
// cross-shard state and arms on the sequential kernel only. The trial's
// machine must also really split into shards, so a comparison that
// silently ran the sequential kernel twice fails.
func sameOnBothKernels(t *testing.T, s TrialSpec, shards int) {
	t.Helper()
	seq, err := RunTrial(s)
	if err != nil {
		t.Fatal(err)
	}
	s.Engine, s.Shards = "parallel", shards
	m, err := machine.New(s.config())
	if err != nil {
		t.Fatal(err)
	}
	if got := m.Eng.NumShards(); got != shards {
		t.Errorf("%s: the machine runs %d shard(s), want %d", s.Label(), got, shards)
	}
	m.Shutdown()
	par, err := RunTrial(s)
	if err != nil {
		t.Fatal(err)
	}
	if seq.Digest != par.Digest {
		t.Errorf("trace digest diverges: seq %s, parallel %s", seq.Digest, par.Digest)
	}
	if seq.Cycles != par.Cycles {
		t.Errorf("run length diverges: seq %d cycles, parallel %d", seq.Cycles, par.Cycles)
	}
	if !reflect.DeepEqual(seq.FinalValues, par.FinalValues) ||
		seq.LockWord != par.LockWord ||
		!reflect.DeepEqual(seq.OpsDone, par.OpsDone) ||
		seq.TrafficDone != par.TrafficDone {
		t.Errorf("functional outcome diverges:\nseq      finals=%v lock=%d ops=%v traffic=%d\nparallel finals=%v lock=%d ops=%v traffic=%d",
			seq.FinalValues, seq.LockWord, seq.OpsDone, seq.TrafficDone,
			par.FinalValues, par.LockWord, par.OpsDone, par.TrafficDone)
	}
	if seq.Injected != par.Injected {
		t.Errorf("injector stats diverge: seq %+v, parallel %+v", seq.Injected, par.Injected)
	}
}

// TestTrialByteIdenticalAcrossKernels is the fault-injection half of the
// parallel-kernel differential matrix: the same chaos trial, at the hostile
// injection level, must replay on the parallel kernel on every backend.
func TestTrialByteIdenticalAcrossKernels(t *testing.T) {
	shardCounts := []int{2, 8}
	if testing.Short() {
		// Keep the -race short pass covering the parallel kernel without
		// paying for the full shard axis.
		shardCounts = []int{2}
	}
	for _, backend := range config.Backends {
		for _, shards := range shardCounts {
			t.Run(fmt.Sprintf("%s/shards=%d", backend, shards), func(t *testing.T) {
				spec := TrialSpec{Seed: 7, Mech: syncprim.AMO, Procs: 16, Vars: 3, Ops: 4, Episodes: 2, LockPasses: 1, Level: 2, Backend: backend}
				sameOnBothKernels(t, spec, shards)
			})
		}
	}
}

// TestTrafficTrialAcrossKernels demands that the traffic-enabled trial of
// traffic_test.go, with its open-loop phase of Poisson-arriving fetch-add
// requests, replay on the parallel event kernel.
func TestTrafficTrialAcrossKernels(t *testing.T) {
	spec := TrialSpec{Seed: 41, Mech: syncprim.AMO, Procs: 4, Vars: 2, Ops: 3, Episodes: 1, Level: 1, TrafficOps: 8, TrafficRate: 2}
	sameOnBothKernels(t, spec, 2)
}
