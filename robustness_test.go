package amosim

import (
	"testing"

	"amosim/internal/config"
	"amosim/internal/syncprim"
)

// TestRobustnessOrdering is the E-robustness experiment: under mild
// deterministic fault injection (chaos level 1 — latency jitter, directory
// retry pressure, forced AMU evictions), every run must stay
// invariant-clean AND the paper's performance ordering must survive:
//
//	AMO > MAO > ActMsg > Atomic ≈ LL/SC
//
// (faster mechanism = fewer cycles per barrier). The conventional pair is
// only required to be within 2x of each other, matching the paper's "≈".
func TestRobustnessOrdering(t *testing.T) {
	procs := 32
	if testing.Short() {
		procs = 16
	}
	cfg := DefaultConfig(procs)
	opts := BarrierOptions{Episodes: 4, Warmup: 1, RunConfig: RunConfig{ChaosSeed: 1, ChaosLevel: 1}}

	pts := make([]SweepPoint, len(syncprim.Mechanisms))
	for i, mech := range syncprim.Mechanisms {
		pts[i] = BarrierPoint(cfg, mech, opts)
	}
	vals, err := runPoints(pts)
	if err != nil {
		t.Fatal(err) // includes invariant-oracle violations
	}
	cost := make(map[Mechanism]float64, len(vals))
	for i, mech := range syncprim.Mechanisms {
		r := vals[i].(BarrierResult)
		cost[mech] = r.CyclesPerBarrier
		t.Logf("%-6s %10.1f cycles/barrier under chaos", mech, r.CyclesPerBarrier)
	}

	order := []Mechanism{syncprim.AMO, syncprim.MAO, syncprim.ActMsg}
	for i := 0; i < len(order)-1; i++ {
		if cost[order[i]] >= cost[order[i+1]] {
			t.Errorf("%v (%.1f) should beat %v (%.1f) under chaos level 1",
				order[i], cost[order[i]], order[i+1], cost[order[i+1]])
		}
	}
	conv := []float64{cost[syncprim.Atomic], cost[syncprim.LLSC]}
	if cost[syncprim.ActMsg] >= conv[0] || cost[syncprim.ActMsg] >= conv[1] {
		t.Errorf("ActMsg (%.1f) should beat both conventional mechanisms (%v)",
			cost[syncprim.ActMsg], conv)
	}
	if hi, lo := max(conv[0], conv[1]), min(conv[0], conv[1]); hi > 2*lo {
		t.Errorf("Atomic (%.1f) and LL/SC (%.1f) should be within 2x (paper's ≈)", conv[0], conv[1])
	}
}

// TestLatencyBoundRunsBarrier: the latencies that once passed Validate and
// then wrapped the simulated clock ("sim: time went backwards") run the AMO
// barrier to completion when set to the bound itself, config.MaxCycles.
func TestLatencyBoundRunsBarrier(t *testing.T) {
	for _, tc := range []struct {
		name   string
		mutate func(*Config)
	}{
		{"HopCycles", func(c *Config) { c.HopCycles = config.MaxCycles }},
		{"DRAMCycles", func(c *Config) { c.DRAMCycles = config.MaxCycles }},
		{"InjectCycles", func(c *Config) { c.InjectCycles = config.MaxCycles }},
		{"DSMRemoteCycles", func(c *Config) { c.Backend = BackendDSM; c.DSMRemoteCycles = config.MaxCycles }},
	} {
		cfg := DefaultConfig(4)
		tc.mutate(&cfg)
		if _, err := RunBarrier(cfg, AMO, BarrierOptions{Episodes: 2, Warmup: 1}); err != nil {
			t.Errorf("%s = MaxCycles: %v", tc.name, err)
		}
	}
}
