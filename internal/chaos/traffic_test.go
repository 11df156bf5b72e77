package chaos_test

import (
	"testing"

	"amosim/internal/chaos"
	"amosim/internal/config"
	"amosim/internal/syncprim"
)

// trafficTrialSpec is a fixed trial with the open-loop phase enabled:
// episodes plus 8 Poisson-arriving fetch-add requests at 2 req/kcycle.
func trafficTrialSpec(mech syncprim.Mechanism) chaos.TrialSpec {
	return chaos.TrialSpec{
		Seed: 41, Mech: mech, Procs: 4,
		Vars: 2, Ops: 3, Episodes: 1, Level: 1,
		TrafficOps: 8, TrafficRate: 2,
	}
}

// TestTrafficTrialDifferential runs the open-loop chaos trial under every
// mechanism class: the traffic counter, its fetch-add permutation, and the
// episode outcomes must agree across all of them.
func TestTrafficTrialDifferential(t *testing.T) {
	var results []chaos.TrialResult
	for _, mech := range syncprim.AllMechanisms {
		r, err := chaos.RunTrial(trafficTrialSpec(mech))
		if err != nil {
			t.Fatal(err)
		}
		if r.TrafficDone != 8 {
			t.Fatalf("%s: traffic counter %d, want 8", mech, r.TrafficDone)
		}
		results = append(results, r)
	}
	if err := chaos.CompareOutcomes(results); err != nil {
		t.Fatal(err)
	}
}

// TestTrafficTrialAcrossBackends runs the traffic-enabled trial on every
// backend: the functional outcome is backend-independent.
func TestTrafficTrialAcrossBackends(t *testing.T) {
	for _, b := range config.Backends {
		spec := trafficTrialSpec(syncprim.LLSC)
		spec.Backend = b
		r, err := chaos.RunTrial(spec)
		if err != nil {
			t.Fatalf("%s: %v", b, err)
		}
		if r.TrafficDone != 8 {
			t.Fatalf("%s: traffic counter %d, want 8", b, r.TrafficDone)
		}
	}
}
