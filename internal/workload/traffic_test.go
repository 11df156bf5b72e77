package workload

import (
	"reflect"
	"strings"
	"testing"

	"amosim/internal/config"
	"amosim/internal/syncprim"
)

// testTraffic is a small, fast driver configuration for unit tests.
var testTraffic = TrafficOptions{Process: "poisson", Rate: 32, Requests: 40, Warmup: 8, Seed: 1}

func runTrafficSpec(t *testing.T, s Spec, cfg config.Config, mech syncprim.Mechanism) TrafficResult {
	t.Helper()
	pt := s.Point(cfg, mech, RunConfig{})
	v, err := pt.Run()
	if err != nil {
		t.Fatalf("%s: %v", pt.Label, err)
	}
	return v.(TrafficResult)
}

// Every traffic app must verify on every backend; the mechanism set is
// trimmed off the AMO backend to keep the matrix fast.
func TestTrafficAppsAcrossMechanismsAndBackends(t *testing.T) {
	for _, app := range TrafficApps {
		s, ok := TrafficSpec(app, testTraffic)
		if !ok {
			t.Fatalf("TrafficSpec(%q) missing", app)
		}
		for _, backend := range config.Backends {
			mechs := []syncprim.Mechanism{syncprim.LLSC, syncprim.AMO}
			if backend == config.BackendAMO {
				mechs = syncprim.Mechanisms
			}
			for _, mech := range mechs {
				t.Run(app+"/"+backend.String()+"/"+mech.String(), func(t *testing.T) {
					cfg := config.Default(8)
					cfg.Backend = backend
					r := runTrafficSpec(t, s, cfg, mech)
					if r.Completed != uint64(testTraffic.Requests) || r.Injected != r.Completed {
						t.Fatalf("completed %d of %d", r.Completed, testTraffic.Requests)
					}
					if r.Cycles == 0 || r.Achieved <= 0 {
						t.Fatalf("implausible window %+v", r)
					}
					if r.Latency.Count != uint64(testTraffic.Requests) {
						t.Fatalf("latency window folded %d sojourns, want %d", r.Latency.Count, testTraffic.Requests)
					}
					if r.Latency.Max < r.Latency.P50 {
						t.Fatalf("max %d < p50 %d", r.Latency.Max, r.Latency.P50)
					}
				})
			}
		}
	}
}

// The same spec must reproduce the identical result on a rerun — schedule,
// payloads, sojourns, and metrics are all functions of the seed.
func TestTrafficDeterministicAcrossReruns(t *testing.T) {
	s, _ := TrafficSpec("mpmc", testTraffic)
	cfg := config.Default(8)
	a := runTrafficSpec(t, s, cfg, syncprim.AMO)
	b := runTrafficSpec(t, s, cfg, syncprim.AMO)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("rerun diverged:\n%+v\n%+v", a, b)
	}
}

func TestTrafficFixedProcess(t *testing.T) {
	o := testTraffic
	o.Process = "fixed"
	s, _ := TrafficSpec("workqueue", o)
	r := runTrafficSpec(t, s, config.Default(4), syncprim.MAO)
	if r.Process != "fixed" || r.Completed != uint64(o.Requests) {
		t.Fatalf("fixed process run: %+v", r)
	}
}

func TestTrafficRejectsBadOptions(t *testing.T) {
	bad := testTraffic
	bad.Process = "uniform"
	s, _ := TrafficSpec("bfs", bad)
	if _, err := s.Point(config.Default(4), syncprim.AMO, RunConfig{}).Run(); err == nil {
		t.Error("unknown arrival process accepted")
	}
	neg := testTraffic
	neg.Requests = -1
	s, _ = TrafficSpec("bfs", neg)
	if _, err := s.Point(config.Default(4), syncprim.AMO, RunConfig{}).Run(); err == nil {
		t.Error("negative request count accepted")
	}
}

// Labels must render every parameter the cache key digests (the label and
// the key both derive from Params()).
func TestTrafficLabelsRenderParams(t *testing.T) {
	for _, app := range TrafficApps {
		s, _ := TrafficSpec(app, testTraffic)
		pt := s.Point(config.Default(8), syncprim.AMO, RunConfig{})
		for _, p := range s.Params() {
			if !strings.Contains(pt.Label, p.Name+"="+p.Value) {
				t.Errorf("%s label %q omits param %s=%s", app, pt.Label, p.Name, p.Value)
			}
		}
	}
}

// The table lists every workload once, in presentation order; ByName finds
// each, and TrafficSpec accepts exactly the open-loop apps.
func TestTrafficSpecRegistry(t *testing.T) {
	want := []string{"stencil", "prefixsum", "histogram", "bfs", "pagerank", "triangles", "workqueue", "mpmc"}
	if !reflect.DeepEqual(want[3:], TrafficApps) {
		t.Fatalf("TrafficApps = %v, want %v", TrafficApps, want[3:])
	}
	var names []string
	seen := map[string]bool{}
	for _, s := range All() {
		if seen[s.Name()] {
			t.Errorf("duplicate spec %q", s.Name())
		}
		seen[s.Name()] = true
		names = append(names, s.Name())
	}
	if !reflect.DeepEqual(names, want) {
		t.Fatalf("All() = %v, want %v", names, want)
	}
	for i, name := range want {
		if s, ok := ByName(name); !ok || s.Name() != name {
			t.Errorf("ByName(%q) = %q, %v", name, s.Name(), ok)
		}
		_, ok := TrafficSpec(name, testTraffic)
		if traffic := i >= 3; ok != traffic {
			t.Errorf("TrafficSpec(%q) ok = %v, want %v", name, ok, traffic)
		}
	}
	if _, ok := ByName("nosuch"); ok {
		t.Error("unknown spec resolved")
	}
	if _, ok := TrafficSpec("nosuch", testTraffic); ok {
		t.Error("unknown app resolved")
	}
	o := testTraffic
	o.Rate = 999
	s, ok := TrafficSpec("pagerank", o)
	if !ok {
		t.Fatal("pagerank missing")
	}
	found := false
	for _, p := range s.Params() {
		if p.Name == "rate" && p.Value == "999" {
			found = true
		}
	}
	if !found {
		t.Fatalf("TrafficSpec rate override not reflected in Params: %v", s.Params())
	}
}
