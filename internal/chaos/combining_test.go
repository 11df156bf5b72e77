package chaos_test

import (
	"testing"

	"amosim/internal/chaos"
	"amosim/internal/config"
	"amosim/internal/syncprim"
)

// TestCombiningDifferentialPerBackend compares the Combining class against
// the conventional Atomic class under the same seeded schedule on each
// backend: entirely different primitives (cohort lock vs ticket lock,
// cluster barrier vs flat barrier) must still produce identical functional
// outcomes.
func TestCombiningDifferentialPerBackend(t *testing.T) {
	for _, backend := range config.Backends {
		backend := backend
		t.Run(backend.String(), func(t *testing.T) {
			var results []chaos.TrialResult
			for _, mech := range []syncprim.Mechanism{syncprim.Atomic, syncprim.Combining} {
				r, err := chaos.RunTrial(pinSpec(mech, backend))
				if err != nil {
					t.Fatal(err)
				}
				results = append(results, r)
			}
			if err := chaos.CompareOutcomes(results); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestCombiningSqueeze runs the combining trial with single-line caches and
// a two-word operand cache: constant capacity evictions must not break the
// cohort lock's baton handoff or the cluster barrier's release fan-out.
func TestCombiningSqueeze(t *testing.T) {
	spec := pinSpec(syncprim.Combining, config.BackendAMO)
	spec.Squeeze = true
	if _, err := chaos.RunTrial(spec); err != nil {
		t.Fatal(err)
	}
}
