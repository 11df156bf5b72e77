package workload

import (
	"fmt"

	"amosim/internal/chaos"
	"amosim/internal/config"
	"amosim/internal/sweep"
	"amosim/internal/syncprim"
)

// The workload table. Every application kernel — the classic phased
// kernels and the open-loop traffic workloads — is one Spec value: a
// stable name, its parameters, and a sweep.Point constructor. Labels and
// cache keys are derived from the same Params() slice, so a parameter can
// never be visible in the label but absent from the key (or the reverse).

// NamedParam is one workload parameter: a stable name and its rendered
// value. The slice returned by Spec.Params feeds both the human-readable
// sweep label and the content-addressed cache key.
type NamedParam struct {
	Name  string
	Value string
}

// ParamInt renders an int parameter.
func ParamInt(name string, v int) NamedParam {
	return NamedParam{Name: name, Value: fmt.Sprintf("%d", v)}
}

// ParamUint renders a uint64 parameter.
func ParamUint(name string, v uint64) NamedParam {
	return NamedParam{Name: name, Value: fmt.Sprintf("%d", v)}
}

// ParamStr renders a string parameter.
func ParamStr(name, v string) NamedParam {
	return NamedParam{Name: name, Value: v}
}

// RunConfig carries the cross-cutting selectors a workload run consumes
// beyond the machine config: the deterministic fault-injection plan.
// Backend, event kernel, and shard overrides travel inside config.Config
// itself (the caller resolves them before building points).
type RunConfig struct {
	// ChaosSeed and ChaosLevel enable deterministic fault injection with
	// runtime invariant oracles (see internal/chaos). Level 0 is off.
	ChaosSeed  uint64
	ChaosLevel int
}

// The closed-loop kernels' fixed sizes, rendered into their parameters.
const (
	stencilChunk   = 4  // words per CPU
	stencilIters   = 4  // sweeps
	histogramBins  = 8  // shared counters
	histogramItems = 12 // items each CPU classifies
)

// Spec is one registered workload: a closed-loop kernel (run) or an
// open-loop request workload (app) driven at traffic. Obtain specs from
// All, ByName or TrafficSpec; the zero Spec is not a workload.
type Spec struct {
	name string
	// params are the fixed parameters; a traffic spec appends its driver
	// options.
	params  []NamedParam
	run     func(cfg config.Config, mech syncprim.Mechanism, rc RunConfig) (Result, error)
	app     trafficApp
	traffic TrafficOptions
}

// specs is the workload table in presentation order: the classic phased
// kernels, then the open-loop traffic workloads (see traffic.go). A slice,
// not a map: the order of All is part of the deterministic-output contract.
var specs = []Spec{
	{name: "stencil", params: []NamedParam{ParamInt("chunk", stencilChunk), ParamInt("iters", stencilIters)},
		run: func(cfg config.Config, mech syncprim.Mechanism, rc RunConfig) (Result, error) {
			return runStencil(cfg, mech, stencilChunk, stencilIters, rc)
		}},
	{name: "prefixsum", run: runPrefixSum},
	{name: "histogram", params: []NamedParam{ParamInt("bins", histogramBins), ParamInt("items", histogramItems)},
		run: func(cfg config.Config, mech syncprim.Mechanism, rc RunConfig) (Result, error) {
			return runHistogram(cfg, mech, histogramBins, histogramItems, rc)
		}},
	{name: "bfs", params: graphParams, app: bfsApp},
	{name: "pagerank", params: graphParams, app: pagerankApp},
	{name: "triangles", params: graphParams, app: trianglesApp},
	{name: "workqueue", app: workqueueApp},
	{name: "mpmc", app: mpmcApp},
}

// All returns the registered specs in presentation order. The slice is
// freshly allocated; callers may filter or reorder.
func All() []Spec {
	return append([]Spec(nil), specs...)
}

// ByName returns the registered spec with the given name, or false.
func ByName(name string) (Spec, bool) {
	for _, s := range specs {
		if s.name == name {
			return s, true
		}
	}
	return Spec{}, false
}

// TrafficSpec returns the registered traffic spec for app with its driver
// options replaced, or false if app is not a traffic workload.
func TrafficSpec(app string, o TrafficOptions) (Spec, bool) {
	s, ok := ByName(app)
	if !ok || s.app == nil {
		return Spec{}, false
	}
	s.traffic = o
	return s, true
}

// Name is the stable identifier ("stencil", "bfs", ...) used on CLI flags
// and in experiment tables.
func (s Spec) Name() string { return s.name }

// Params lists every parameter of the spec, defaults applied. The same
// slice is rendered into the sweep label and digested into the cache key,
// so labels can never alias across parameterizations.
func (s Spec) Params() []NamedParam {
	ps := append([]NamedParam(nil), s.params...)
	if s.app != nil {
		ps = append(ps, trafficParams(s.traffic)...)
	}
	return ps
}

// Point returns the sweep point running this workload on cfg under mech.
// The kernel verifies its own output against a host oracle, so a
// synchronization bug fails the point instead of skewing it.
func (s Spec) Point(cfg config.Config, mech syncprim.Mechanism, rc RunConfig) sweep.Point {
	if s.app != nil {
		return point(s, cfg, mech, rc, func() (TrafficResult, error) {
			return runTraffic(cfg, mech, rc, s.name, s.app, s.traffic)
		})
	}
	return point(s, cfg, mech, rc, func() (Result, error) {
		return s.run(cfg, mech, rc)
	})
}

// point assembles a sweep.Point for a spec: the label renders the spec's
// name, mechanism, scale, every parameter, and the backend/kernel tag; the
// key digests the config, mechanism, chaos plan, and the identical
// parameter slice.
func point[R any](s Spec, cfg config.Config, mech syncprim.Mechanism, rc RunConfig, run func() (R, error)) sweep.Point {
	ps := s.Params()
	label := fmt.Sprintf("%s %s p=%d", s.name, mech, cfg.Processors)
	for _, p := range ps {
		label += " " + p.Name + "=" + p.Value
	}
	label += cfg.Tag()
	return sweep.Point{
		Label: label,
		Key:   sweep.KeyOf("workload/"+s.name, cfg, int(mech), rc, ps),
		Run: func() (any, error) {
			r, err := run()
			if err != nil {
				return nil, err
			}
			return r, nil
		},
	}
}

// plan is the fault-injection plan rc selects.
func (rc RunConfig) plan() chaos.Plan {
	return chaos.Plan{Seed: rc.ChaosSeed, Level: rc.ChaosLevel}
}
