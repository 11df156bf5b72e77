package amosim

import (
	"strings"
	"testing"

	"amosim/internal/workload"
)

// testTrafficExperiment is the compact traffic grid: one app, one rate,
// all three backends, both default mechanisms.
func testTrafficExperiment(procs ...int) TrafficExperiment {
	return TrafficExperiment{
		Procs: procs,
		Apps:  []string{"mpmc"},
		Rates: []int{32},
		Options: workload.TrafficOptions{
			Requests: 300, Warmup: 16,
		},
	}
}

// TrafficSweep must label cells in expansion order and carry saturation
// verdicts consistent with the offered/achieved rates.
func TestTrafficSweepCells(t *testing.T) {
	e := TrafficExperiment{
		Procs: []int{8},
		Apps:  []string{"workqueue", "mpmc"},
		Rates: []int{16, 64},
		Options: workload.TrafficOptions{
			Requests: 60, Warmup: 8,
		},
	}
	cells, err := TrafficSweep(e)
	if err != nil {
		t.Fatal(err)
	}
	// 1 scale x 2 apps x 3 backends x 2 rates x 2 mechs.
	if len(cells) != 24 {
		t.Fatalf("cell count %d, want 24", len(cells))
	}
	if cells[0].App != "workqueue" || cells[12].App != "mpmc" {
		t.Fatalf("app expansion order wrong: %s, %s", cells[0].App, cells[12].App)
	}
	for _, c := range cells {
		if c.Result.Rate != c.Rate || c.Result.Name != c.App {
			t.Fatalf("cell/result mismatch: %+v vs %+v", c, c.Result)
		}
		wantSat := c.Result.Achieved < 0.95*c.Result.Offered
		if c.Result.Saturated != wantSat {
			t.Fatalf("saturation verdict %v inconsistent with achieved %.2f of %.2f",
				c.Result.Saturated, c.Result.Achieved, c.Result.Offered)
		}
	}
}

func TestTrafficTableShapesAndSaturationRow(t *testing.T) {
	e := testTrafficExperiment(8)
	tb, err := TrafficTable(e)
	if err != nil {
		t.Fatal(err)
	}
	out := tb.Render()
	if !strings.Contains(out, "sat") {
		t.Fatalf("table missing saturation summary row:\n%s", out)
	}
	// 3 backends x (1 rate row + 1 saturation row).
	if got := len(tb.Rows); got != 6 {
		t.Fatalf("row count %d, want 6:\n%s", got, out)
	}
}

// The open-loop harness must sustain a million-request run: the flagship
// scale of the acceptance criteria. ~1e6 requests through the fetch-add
// MPMC ring on the default machine.
func TestTrafficMillionRequests(t *testing.T) {
	if testing.Short() {
		t.Skip("million-request run skipped under -short")
	}
	o := workload.TrafficOptions{Process: "poisson", Rate: 4096, Requests: 1_000_000, Warmup: 1024, Seed: 1}
	s, ok := workload.TrafficSpec("mpmc", o)
	if !ok {
		t.Fatal("mpmc spec missing")
	}
	pt := s.Point(DefaultConfig(64), AMO, workload.RunConfig{})
	v, err := pt.Run()
	if err != nil {
		t.Fatal(err)
	}
	r := v.(TrafficResult)
	if r.Completed != 1_000_000 || r.Latency.Count != 1_000_000 {
		t.Fatalf("million-request run incomplete: %+v", r)
	}
	if r.Latency.Exact {
		t.Fatalf("million-sample window should use bucketed quantiles")
	}
}
