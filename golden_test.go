package amosim

import (
	"os"
	"strings"
	"testing"
)

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

// paperTablesGolden is the benchmark module's pin of the paper-tables
// workload: one "== name ==" section per experiment, each holding that
// experiment's Render() plus a newline. The test reads the file in place,
// so tier-1 and the benchmark check the same bytes.
const paperTablesGolden = "bench/testdata/golden/paper-tables.txt"

// TestPaperTablesGolden pins the paper's tables and the AMU ablations, at
// their paper-standard scales, byte for byte.
func TestPaperTablesGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-scale tables")
	}
	raw, err := os.ReadFile(paperTablesGolden)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{}
	name := ""
	for _, line := range strings.SplitAfter(string(raw), "\n") {
		if s, ok := strings.CutPrefix(line, "== "); ok && strings.HasSuffix(s, " ==\n") {
			name = strings.TrimSuffix(s, " ==\n")
			continue
		}
		want[name] += line
	}
	for _, name := range []string{
		"fig1", "table2", "fig5", "table3", "fig6", "table4", "fig7",
		"ablation-amucache", "ablation-update",
	} {
		e, ok := ExperimentByName(name)
		if !ok {
			t.Fatalf("experiment %q not registered", name)
		}
		tab, err := e.Run(ExperimentParams{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got := tab.Render() + "\n"; got != want[name] {
			t.Errorf("%s differs from %s:\ngot:\n%swant:\n%s", name, paperTablesGolden, got, want[name])
		}
	}
}
