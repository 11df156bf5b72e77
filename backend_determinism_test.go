package amosim

import (
	"fmt"
	"reflect"
	"testing"
)

// perturb returns a copy of cfg with field i nudged to a different value,
// or false for field kinds the test does not know how to change.
func perturb(cfg Config, i int) (Config, bool) {
	v := reflect.ValueOf(&cfg).Elem().Field(i)
	switch v.Kind() {
	case reflect.Int, reflect.Int64:
		v.SetInt(v.Int() + 1)
	case reflect.Uint64, reflect.Uint:
		v.SetUint(v.Uint() + 1)
	case reflect.Bool:
		v.SetBool(!v.Bool())
	case reflect.String:
		v.SetString(v.String() + "x")
	default:
		return cfg, false
	}
	return cfg, true
}

// TestSweepKeyCoversEveryConfigField is the cache-key audit: every field of
// Config must flow into a sweep point's key, so two runs differing in any
// machine knob — including the memory-system backend — can never alias in
// the result cache. The test perturbs each field by reflection and demands
// the key move.
func TestSweepKeyCoversEveryConfigField(t *testing.T) {
	base := DefaultConfig(8)
	opts := BarrierOptions{Episodes: 2, Warmup: 1}
	baseKey := BarrierPoint(base, AMO, opts).Key
	rt := reflect.TypeOf(base)
	for i := 0; i < rt.NumField(); i++ {
		f := rt.Field(i)
		if f.PkgPath != "" {
			t.Errorf("Config.%s is unexported: it cannot reach the JSON cache key", f.Name)
			continue
		}
		cfg, ok := perturb(base, i)
		if !ok {
			t.Errorf("Config.%s has kind %s the audit cannot perturb; extend perturb()", f.Name, f.Type.Kind())
			continue
		}
		if got := BarrierPoint(cfg, AMO, opts).Key; got == baseKey {
			t.Errorf("perturbing Config.%s did not change the sweep key: cached results would alias", f.Name)
		}
	}
}

// auditOptionFields perturbs every exported leaf field of the struct at v
// (recursing through embedded structs like RunConfig) and demands that key()
// reports a different sweep key for each perturbation. Fields are restored
// between probes, so each perturbation is tested in isolation.
func auditOptionFields(t *testing.T, v reflect.Value, prefix, baseKey string, key func() string) {
	t.Helper()
	rt := v.Type()
	for i := 0; i < rt.NumField(); i++ {
		f := rt.Field(i)
		name := prefix + "." + f.Name
		if f.PkgPath != "" {
			t.Errorf("%s is unexported: it cannot reach the JSON cache key", name)
			continue
		}
		fv := v.Field(i)
		if fv.Kind() == reflect.Struct {
			auditOptionFields(t, fv, name, baseKey, key)
			continue
		}
		old := reflect.ValueOf(fv.Interface())
		switch fv.Kind() {
		case reflect.Int, reflect.Int64:
			fv.SetInt(fv.Int() + 1)
		case reflect.Uint, reflect.Uint64:
			fv.SetUint(fv.Uint() + 1)
		case reflect.Bool:
			fv.SetBool(!fv.Bool())
		case reflect.String:
			fv.SetString(fv.String() + "x")
		default:
			t.Errorf("%s has kind %s the audit cannot perturb; extend auditOptionFields", name, fv.Kind())
			continue
		}
		if got := key(); got == baseKey {
			t.Errorf("perturbing %s did not change the sweep key: cached results would alias", name)
		}
		fv.Set(old)
	}
}

// TestSweepKeyCoversEveryOptionField extends the cache-key audit from the
// machine config to the experiment options: every BarrierOptions and
// LockOptions field — the combining knobs (ClusterSize, CombinePasses) and
// the embedded RunConfig selectors included — must move the key. The base
// options use non-default values everywhere a default exists, so a
// perturbation can never collide with the defaulted spelling of the same
// point.
func TestSweepKeyCoversEveryOptionField(t *testing.T) {
	cfg := DefaultConfig(8)

	bopts := BarrierOptions{Episodes: 3, Warmup: 1, Branching: 2, ClusterSize: 3, WorkCycles: 97, Home: 1}
	bKey := func() string { return BarrierPoint(cfg, AMO, bopts).Key }
	auditOptionFields(t, reflect.ValueOf(&bopts).Elem(), "BarrierOptions", bKey(), bKey)

	lopts := LockOptions{Acquires: 3, CSCycles: 26, GapCycles: 65, Home: 1, ClusterSize: 3, CombinePasses: 5}
	lKey := func() string { return LockPoint(cfg, Cohort, Combining, lopts).Key }
	auditOptionFields(t, reflect.ValueOf(&lopts).Elem(), "LockOptions", lKey(), lKey)
}

// setNonDefaults recursively sets every exported leaf field of the struct
// at v to a fixed non-zero value, so a WithDefaults resolution can never
// map a perturbed spelling back onto the base one (e.g. a zero seed
// defaulting to 1 colliding with a perturbation to 1).
func setNonDefaults(v reflect.Value) {
	for i := 0; i < v.NumField(); i++ {
		fv := v.Field(i)
		switch fv.Kind() {
		case reflect.Struct:
			setNonDefaults(fv)
		case reflect.Int, reflect.Int64:
			fv.SetInt(7)
		case reflect.Uint, reflect.Uint64:
			fv.SetUint(7)
		case reflect.Bool:
			fv.SetBool(true)
		case reflect.String:
			fv.SetString("fixed")
		}
	}
}

// TestSweepKeyCoversEveryWorkloadSpecField extends the cache-key audit to
// the workload table. A WorkloadSpec has no settable field of its own: its
// only inputs are the TrafficOptions a traffic app is built with and the
// workload RunConfig selectors, so every field of both must move the sweep
// key. A parameter that can change a result without changing the key would
// alias cached cells.
func TestSweepKeyCoversEveryWorkloadSpecField(t *testing.T) {
	cfg := DefaultConfig(8)
	for _, app := range TrafficApps {
		var o TrafficOptions
		ov := reflect.ValueOf(&o).Elem()
		setNonDefaults(ov)
		key := func() string {
			s, ok := TrafficWorkloadSpec(app, o)
			if !ok {
				t.Fatalf("traffic workload %q not registered", app)
			}
			return s.Point(cfg, AMO, WorkloadRunConfig{}).Key
		}
		auditOptionFields(t, ov, app+".TrafficOptions", key(), key)
	}

	rc := WorkloadRunConfig{ChaosSeed: 9, ChaosLevel: 2}
	s, ok := WorkloadSpecByName("stencil")
	if !ok {
		t.Fatal("stencil workload not registered")
	}
	rKey := func() string { return s.Point(cfg, AMO, rc).Key }
	auditOptionFields(t, reflect.ValueOf(&rc).Elem(), "WorkloadRunConfig", rKey(), rKey)
}

// TestCombiningNeverAliasesCacheKey pins the new mechanism class and lock
// kind into the no-alias contract: every mechanism (the paper's five plus
// Combining) and every lock kind (Cohort included) must produce a distinct
// sweep key for otherwise-identical points.
func TestCombiningNeverAliasesCacheKey(t *testing.T) {
	cfg := DefaultConfig(8)
	bopts := BarrierOptions{Episodes: 2, Warmup: 1}
	seen := map[string]Mechanism{}
	for _, mech := range AllMechanisms {
		k := BarrierPoint(cfg, mech, bopts).Key
		if prev, dup := seen[k]; dup {
			t.Errorf("barrier key aliases between mechanisms %v and %v", prev, mech)
		}
		seen[k] = mech
	}
	lopts := LockOptions{Acquires: 2}
	lockSeen := map[string]string{}
	for _, kind := range []LockKind{Ticket, Array, MCS, Cohort} {
		for _, mech := range []Mechanism{Atomic, Combining} {
			k := LockPoint(cfg, kind, mech, lopts).Key
			id := kind.String() + "/" + mech.String()
			if prev, dup := lockSeen[k]; dup {
				t.Errorf("lock key aliases between %s and %s", prev, id)
			}
			lockSeen[k] = id
		}
	}
}

// TestBackendNeverAliasesCacheKey is the regression the Backend field
// demands: two points differing only in backend — whether via the config
// or via the options override — must have distinct cache keys.
func TestBackendNeverAliasesCacheKey(t *testing.T) {
	cfg := DefaultConfig(8)
	seen := map[string]Backend{}
	note := func(k string, b Backend) {
		t.Helper()
		if prev, dup := seen[k]; dup && prev != b {
			t.Fatalf("barrier key aliases across backends %v and %v", b, prev)
		}
		seen[k] = b
	}
	for _, b := range Backends {
		// The same backend spelled two ways: through the options override
		// and through the config. Either spelling must collide only with
		// runs of the same backend, never with a different one.
		note(BarrierPoint(cfg, AMO, BarrierOptions{Episodes: 2, Warmup: 1, RunConfig: RunConfig{Backend: b}}).Key, b)
		c := cfg
		c.Backend = b
		note(BarrierPoint(c, AMO, BarrierOptions{Episodes: 2, Warmup: 1}).Key, b)
	}
	if len(seen) < len(Backends) {
		t.Fatalf("only %d distinct barrier keys across %d backends", len(seen), len(Backends))
	}
	lockSeen := map[string]bool{}
	for _, b := range Backends {
		k := LockPoint(cfg, Ticket, AMO, LockOptions{Acquires: 2, RunConfig: RunConfig{Backend: b}}).Key
		if lockSeen[k] {
			t.Fatalf("lock key for backend %v aliases another backend", b)
		}
		lockSeen[k] = true
	}
}

// TestEngineKernelCacheKeysNeverAlias pins the cache-safety side of the
// engine axis: points differing only in kernel or shard count must have
// distinct sweep keys, or a parallel run could be served a sequential
// run's cached result (harmless today precisely because the results are
// identical — but the key must not rely on that).
func TestEngineKernelCacheKeysNeverAlias(t *testing.T) {
	cfg := DefaultConfig(16)
	opts := BarrierOptions{Episodes: 2, Warmup: 1}
	seen := map[string]string{}
	for _, rc := range []RunConfig{
		{},
		{Engine: "parallel", Shards: 1},
		{Engine: "parallel", Shards: 2},
		{Engine: "parallel", Shards: 8},
	} {
		o := opts
		o.RunConfig = rc
		k := BarrierPoint(cfg, AMO, o).Key
		label := fmt.Sprintf("%+v", rc)
		if prev, dup := seen[k]; dup {
			t.Errorf("sweep key aliases between %s and %s", prev, label)
		}
		seen[k] = label
	}
}

// TestBackendTableRuns smoke-tests the cross-backend comparison table at a
// small scale: every row must have a cell for all three backends. The
// differential matrix renders the same table at Workers 1 and 4 on a cold
// cache.
func TestBackendTableRuns(t *testing.T) {
	tb, err := BackendTable([]int{4}, BarrierOptions{Episodes: 1, Warmup: 1}, LockOptions{Acquires: 1})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := len(tb.Rows), len(Mechanisms)*2+len(WorkloadApps); got != want {
		t.Fatalf("BackendTable([4]) has %d rows, want %d", got, want)
	}
}
