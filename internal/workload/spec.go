package workload

import (
	"fmt"

	"amosim/internal/chaos"
	"amosim/internal/config"
	"amosim/internal/sweep"
	"amosim/internal/syncprim"
)

// The typed workload registry. Every application kernel — the classic
// phased kernels and the open-loop traffic workloads — describes itself as
// a Spec: a stable name, its parameters, and a sweep.Point constructor.
// Labels and cache keys are derived from the same Params() slice, so a
// parameter can never be visible in the label but absent from the key (or
// the reverse), and the reflection audit in the root package can demand
// that perturbing any Spec field moves the key.

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

// Spec is one registered workload. Implementations are small value structs
// whose zero value selects documented defaults; Params() reports the
// defaulted parameters.
type Spec interface {
	// Name is the stable identifier ("stencil", "bfs", ...) used on CLI
	// flags and in experiment tables.
	Name() string
	// Params lists every tunable of the spec, defaults applied. The same
	// slice is rendered into the sweep label and digested into the cache
	// key, so labels can never alias across parameterizations.
	Params() []NamedParam
	// Point returns the sweep point running this workload on cfg under
	// mech. The kernel verifies its own output against a host oracle, so a
	// synchronization bug fails the point instead of skewing it.
	Point(cfg config.Config, mech syncprim.Mechanism, rc RunConfig) sweep.Point
}

// registry holds Specs in registration order (a slice, not a map: the
// iteration order of All is part of the deterministic-output contract).
var registry []Spec

// Register adds a Spec to the registry. It panics on a duplicate name:
// registration happens in init functions, so a collision is a programming
// error, not a run condition.
func Register(s Spec) {
	for _, r := range registry {
		if r.Name() == s.Name() {
			panic(fmt.Sprintf("workload: duplicate spec %q", s.Name()))
		}
	}
	registry = append(registry, s)
}

// All returns the registered specs in registration order. The slice is
// freshly allocated; callers may filter or reorder.
func All() []Spec {
	return append([]Spec(nil), registry...)
}

// ByName returns the registered spec with the given name, or false.
func ByName(name string) (Spec, bool) {
	for _, s := range registry {
		if s.Name() == name {
			return s, true
		}
	}
	return nil, false
}

func init() {
	// Classic phased kernels, presentation order.
	Register(StencilSpec{})
	Register(PrefixSumSpec{})
	Register(HistogramSpec{})
	// Open-loop traffic workloads (see traffic.go).
	Register(BFSSpec{})
	Register(PageRankSpec{})
	Register(TrianglesSpec{})
	Register(WorkQueueSpec{})
	Register(MPMCSpec{})
}

// point assembles a sweep.Point for a spec: the label renders the spec's
// name, mechanism, scale, every parameter, and the backend/kernel tag; the
// key digests the config, mechanism, chaos plan, and the identical
// parameter slice.
func point[R any](s Spec, cfg config.Config, mech syncprim.Mechanism, rc RunConfig, run func() (R, error)) sweep.Point {
	ps := s.Params()
	label := fmt.Sprintf("%s %s p=%d", s.Name(), mech, cfg.Processors)
	for _, p := range ps {
		label += " " + p.Name + "=" + p.Value
	}
	label += cfg.Tag()
	return sweep.Point{
		Label: label,
		Key:   sweep.KeyOf("workload/"+s.Name(), cfg, int(mech), rc, ps),
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

// StencilSpec is the 1-D three-point stencil kernel (see Stencil).
type StencilSpec struct {
	// Chunk is words per CPU (default 4); Iters is sweep count (default 4).
	Chunk int
	Iters int
}

// WithDefaults resolves zero-valued fields to the documented defaults.
func (s StencilSpec) WithDefaults() StencilSpec {
	s.Chunk = sweep.DefaultInt(s.Chunk, 4)
	s.Iters = sweep.DefaultInt(s.Iters, 4)
	return s
}

// Name implements Spec.
func (s StencilSpec) Name() string { return "stencil" }

// Params implements Spec.
func (s StencilSpec) Params() []NamedParam {
	s = s.WithDefaults()
	return []NamedParam{ParamInt("chunk", s.Chunk), ParamInt("iters", s.Iters)}
}

// Point implements Spec.
func (s StencilSpec) Point(cfg config.Config, mech syncprim.Mechanism, rc RunConfig) sweep.Point {
	s = s.WithDefaults()
	return point(s, cfg, mech, rc, func() (Result, error) {
		return runStencil(cfg, mech, s.Chunk, s.Iters, rc)
	})
}

// PrefixSumSpec is the Hillis–Steele prefix-sum kernel (see PrefixSum). It
// has no tunables beyond the machine scale.
type PrefixSumSpec struct{}

// Name implements Spec.
func (PrefixSumSpec) Name() string { return "prefixsum" }

// Params implements Spec.
func (PrefixSumSpec) Params() []NamedParam { return nil }

// Point implements Spec.
func (s PrefixSumSpec) Point(cfg config.Config, mech syncprim.Mechanism, rc RunConfig) sweep.Point {
	return point(s, cfg, mech, rc, func() (Result, error) {
		return runPrefixSum(cfg, mech, rc)
	})
}

// HistogramSpec is the contended-counter histogram kernel (see Histogram).
type HistogramSpec struct {
	// Bins is the shared-counter count (default 8); ItemsPerCPU the items
	// each CPU classifies (default 12).
	Bins        int
	ItemsPerCPU int
}

// WithDefaults resolves zero-valued fields to the documented defaults.
func (s HistogramSpec) WithDefaults() HistogramSpec {
	s.Bins = sweep.DefaultInt(s.Bins, 8)
	s.ItemsPerCPU = sweep.DefaultInt(s.ItemsPerCPU, 12)
	return s
}

// Name implements Spec.
func (s HistogramSpec) Name() string { return "histogram" }

// Params implements Spec.
func (s HistogramSpec) Params() []NamedParam {
	s = s.WithDefaults()
	return []NamedParam{ParamInt("bins", s.Bins), ParamInt("items", s.ItemsPerCPU)}
}

// Point implements Spec.
func (s HistogramSpec) Point(cfg config.Config, mech syncprim.Mechanism, rc RunConfig) sweep.Point {
	s = s.WithDefaults()
	return point(s, cfg, mech, rc, func() (Result, error) {
		return runHistogram(cfg, mech, s.Bins, s.ItemsPerCPU, rc)
	})
}
