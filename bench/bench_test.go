package bench

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"regexp"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/golden from one full-size round of each workload")

// spec is the part of BENCHMARK.json the command must honour.
type spec struct {
	Workloads []struct{ Name string }
	EndToEnd  []specMetric `json:"end_to_end"`
	PerLayer  []specMetric `json:"per_layer"`
}

type specMetric struct{ Name, Unit string }

func readSpec(t *testing.T) spec {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	if err := json.Unmarshal(b, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

func specNames(ms []specMetric) []string {
	out := make([]string, len(ms))
	for i, m := range ms {
		out[i] = m.Name
	}
	return out
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

// TestSmoke runs every workload at its smoke size, untraced and traced, and
// checks the summary against BENCHMARK.json: every declared metric with its
// unit, well-formed names, no failed op, and layer seconds that add up to
// the sampled total.
func TestSmoke(t *testing.T) {
	s := readSpec(t)
	var names []string
	for _, w := range s.Workloads {
		names = append(names, w.Name)
	}
	if strings.Join(names, ",") != strings.Join(Workloads, ",") {
		t.Fatalf("BENCHMARK.json workloads %v, command runs %v", names, Workloads)
	}
	if got := specNames(s.EndToEnd); strings.Join(got, ",") != strings.Join(endToEnd, ",") {
		t.Errorf("BENCHMARK.json end_to_end %v, command reports %v", got, endToEnd)
	}
	if got := specNames(s.PerLayer); strings.Join(got, ",") != strings.Join(perLayer, ",") {
		t.Errorf("BENCHMARK.json per_layer %v, command reports %v", got, perLayer)
	}
	for _, name := range Workloads {
		for _, traced := range []bool{false, true} {
			o := Options{Workload: name, Seed: 1, smoke: true}
			declared := s.EndToEnd
			if traced {
				o.TraceDir = t.TempDir()
				declared = s.PerLayer
			}
			rep, err := Run(o)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", name, traced, err)
			}
			if !rep.Correct || rep.Failed != 0 || rep.Attempted == 0 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d", name, traced, rep.Correct, rep.Attempted, rep.Failed)
			}
			if len(rep.Metrics) != len(declared) {
				t.Errorf("%s traced=%v: summary has %d metrics, BENCHMARK.json declares %d", name, traced, len(rep.Metrics), len(declared))
			}
			for _, m := range declared {
				if got, ok := rep.Metrics[m.Name]; !ok || got.Unit != m.Unit {
					t.Errorf("%s traced=%v: %s = %+v, want unit %s", name, traced, m.Name, got, m.Unit)
				}
			}
			var layers float64
			for _, set := range []map[string]Metric{rep.Metrics, rep.Extra} {
				for k, m := range set {
					if !metricName.MatchString(k) {
						t.Errorf("%s: metric name %q", name, k)
					}
					if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
						t.Errorf("%s: %s = %v", name, k, m.Value)
					}
					if strings.HasPrefix(k, "host.") && strings.HasSuffix(k, "_s") && k != "host.total_s" {
						layers += m.Value
					}
				}
			}
			if total := rep.Metrics["host.total_s"].Value; traced && math.Abs(layers-total) > 0.05*total {
				t.Errorf("%s: layer seconds sum to %v, sampled total %v", name, layers, total)
			}
		}
	}
}

// TestCountsRepeat checks that the deterministic per-layer counts of two
// independent in-process runs of each workload are identical.
func TestCountsRepeat(t *testing.T) {
	for _, name := range Workloads {
		var first map[string]Metric
		for i := 0; i < 2; i++ {
			w, err := newWorkload(name, 1, true)
			if err != nil {
				t.Fatal(err)
			}
			if err := w.setup(); err != nil {
				t.Fatal(err)
			}
			runRound(w)
			r := w.check()
			if r.failed != 0 {
				t.Fatalf("%s: %d failed: %v", name, r.failed, r.errs)
			}
			if i == 0 {
				first = r.counts
			} else if !sameMetrics(first, r.counts) {
				t.Errorf("%s: counts differ between runs:\n%v\n%v", name, first, r.counts)
			}
		}
	}
}

// TestUpdateGoldens rewrites the pinned outputs from one full-size round
// of each workload at seed 1. It runs only with -update.
func TestUpdateGoldens(t *testing.T) {
	if !*update {
		t.Skip("run with -update to rewrite testdata/golden")
	}
	for _, name := range Workloads {
		w, err := newWorkload(name, 1, false)
		if err != nil {
			t.Fatal(err)
		}
		switch w := w.(type) {
		case *paperTables:
			w.golden = nil
		case *pdes:
			w.golden = nil
		case *traffic:
			w.golden = nil
		}
		if err := w.setup(); err != nil {
			t.Fatal(err)
		}
		runRound(w)
		if r := w.check(); r.failed != 0 {
			t.Fatalf("%s: %d failed: %v", name, r.failed, r.errs)
		}
		var data []byte
		switch w := w.(type) {
		case *paperTables:
			var b strings.Builder
			for _, name := range paperExperiments {
				fmt.Fprintf(&b, "== %s ==\n%s", name, w.bodies[name])
			}
			data = []byte(b.String())
		case *pdes:
			data = w.pin
		case *traffic:
			data = w.pin
		}
		if err := os.WriteFile(goldenPath(name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

func runRound(w workload) {
	for _, u := range w.startRound() {
		u.run(nil, 0)
	}
}
