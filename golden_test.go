package amosim

import "testing"

// TestGoldenBarrierCycles pins exact simulated cycle counts for a small
// configuration. The simulator is fully deterministic, so these values are
// bit-stable across runs and platforms; any change means the timing model
// or protocol changed. Update the constants deliberately when that happens
// (and re-derive EXPERIMENTS.md).
func TestGoldenBarrierCycles(t *testing.T) {
	if testing.Short() {
		t.Skip("golden values")
	}
	cases := []struct {
		backend Backend
		mech    Mechanism
		cycles  float64
	}{
		{BackendAMO, LLSC, 4403.5},
		{BackendAMO, AMO, 594},
		{BackendAMO, MAO, 2390.75},
		{BackendSynCron, AMO, 614},
		{BackendSynCron, MAO, 2410.75},
	}
	for _, c := range cases {
		cfg := DefaultConfig(8)
		cfg.Backend = c.backend
		r, err := RunBarrier(cfg, c.mech, BarrierOptions{Episodes: 4, Warmup: 1})
		if err != nil {
			t.Fatal(err)
		}
		if r.CyclesPerBarrier != c.cycles {
			t.Errorf("%v %v p8: %v cycles per barrier, want %v", c.backend, c.mech, r.CyclesPerBarrier, c.cycles)
		}
	}
	// Cross-mechanism relations that must never regress.
	get := func(mech Mechanism) float64 {
		for _, c := range cases {
			if c.backend == BackendAMO && c.mech == mech {
				return c.cycles
			}
		}
		t.Fatal("missing mech")
		return 0
	}
	if !(get(AMO) < get(MAO) && get(MAO) < get(LLSC)) {
		t.Errorf("ordering broken: AMO=%v MAO=%v LLSC=%v", get(AMO), get(MAO), get(LLSC))
	}
	if ratio := get(LLSC) / get(AMO); ratio < 5 || ratio > 15 {
		t.Errorf("LLSC/AMO ratio at 8 CPUs = %.2f, expected 5..15 (paper: 5.48)", ratio)
	}
}
