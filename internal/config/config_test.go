package config

import (
	"errors"
	"reflect"
	"slices"
	"strings"
	"testing"

	"amosim/internal/cache"
	"amosim/internal/core"
	"amosim/internal/topology"
)

func TestDefaultIsValid(t *testing.T) {
	for _, p := range []int{2, 4, 8, 16, 32, 64, 128, 256} {
		c := Default(p)
		if err := c.Validate(); err != nil {
			t.Errorf("Default(%d).Validate() = %v", p, err)
		}
		if c.Nodes() != p/2 {
			t.Errorf("Default(%d).Nodes() = %d, want %d", p, c.Nodes(), p/2)
		}
	}
}

func TestDefaultMatchesTable1(t *testing.T) {
	c := Default(32)
	if c.BlockBytes != 128 {
		t.Errorf("BlockBytes = %d, want 128 (Table 1 L2 line)", c.BlockBytes)
	}
	if c.DRAMCycles != 60 {
		t.Errorf("DRAMCycles = %d, want 60", c.DRAMCycles)
	}
	if c.HopCycles != 100 {
		t.Errorf("HopCycles = %d, want 100", c.HopCycles)
	}
	if c.RouterRadix != 8 {
		t.Errorf("RouterRadix = %d, want 8", c.RouterRadix)
	}
	if c.MinPacketBytes != 32 {
		t.Errorf("MinPacketBytes = %d, want 32", c.MinPacketBytes)
	}
	if c.AMUCacheWords != 8 {
		t.Errorf("AMUCacheWords = %d, want 8", c.AMUCacheWords)
	}
	if c.AMUOpCycles != 2 {
		t.Errorf("AMUOpCycles = %d, want 2", c.AMUOpCycles)
	}
	if c.ProcsPerNode != 2 {
		t.Errorf("ProcsPerNode = %d, want 2", c.ProcsPerNode)
	}
}

func TestWordsPerBlock(t *testing.T) {
	c := Default(4)
	if got := c.WordsPerBlock(); got != 16 {
		t.Errorf("WordsPerBlock = %d, want 16", got)
	}
}

// validateRejections are the configurations Validate must reject: each
// mutates Default(8), and substr is part of the error's text.
var validateRejections = []struct {
	name   string
	mutate func(*Config)
	substr string
}{
	{"zero processors", func(c *Config) { c.Processors = 0 }, "Processors"},
	{"negative processors", func(c *Config) { c.Processors = -4 }, "Processors"},
	{"zero procs per node", func(c *Config) { c.ProcsPerNode = 0 }, "ProcsPerNode"},
	{"non multiple", func(c *Config) { c.Processors = 5 }, "multiple"},
	{"bad block bytes", func(c *Config) { c.BlockBytes = 100 }, "BlockBytes"},
	{"non pow2 block", func(c *Config) { c.BlockBytes = 24 }, "BlockBytes"},
	{"oversized block", func(c *Config) { c.BlockBytes = 1024 }, "must be at most 512"},
	{"zero ways", func(c *Config) { c.CacheWays = 0 }, "cache geometry"},
	{"non pow2 sets", func(c *Config) { c.CacheSets = 100 }, "CacheSets"},
	{"huge sets", func(c *Config) { c.CacheSets = 1 << 40 }, "line count must be at most 65536"},
	{"huge ways", func(c *Config) { c.CacheWays = 1 << 40 }, "line count must be at most 65536"},
	{"lines over bound", func(c *Config) { c.CacheSets = 1 << 15; c.CacheWays = 3 }, "line count must be at most 65536"},
	{"too many nodes", func(c *Config) { c.Processors = 2 * 4097 }, "more than the 4096 a hop table holds"},
	{"too many nodes at one per node", func(c *Config) { c.Processors = 1 << 22; c.ProcsPerNode = 1 }, "4194304 nodes"},
	{"radix 1", func(c *Config) { c.RouterRadix = 1 }, "RouterRadix"},
	{"non pow2 radix", func(c *Config) { c.RouterRadix = 6 }, "RouterRadix"},
	{"bad interconnect", func(c *Config) { c.Interconnect = "hypercube" }, "Interconnect"},
	{"non pow2 torus", func(c *Config) { c.Interconnect = "torus"; c.Processors = 6 }, "power-of-two node count"},
	{"negative amu cache", func(c *Config) { c.AMUCacheWords = -1 }, "AMUCacheWords"},
	{"zero actmsg queue", func(c *Config) { c.ActMsgQueueDepth = 0 }, "ActMsgQueueDepth"},
	{"zero min packet", func(c *Config) { c.MinPacketBytes = 0 }, "MinPacketBytes"},
	{"negative header", func(c *Config) { c.HeaderBytes = -1 }, "HeaderBytes"},
	{"zero hop latency", func(c *Config) { c.HopCycles = 0 }, "HopCycles"},
	{"zero dram latency", func(c *Config) { c.DRAMCycles = 0 }, "DRAMCycles"},
	{"zero amu op latency", func(c *Config) { c.AMUOpCycles = 0 }, "AMUOpCycles"},
	// Latencies that passed Validate and then wrapped the simulated
	// clock ("sim: time went backwards").
	{"hop latency wraps the clock", func(c *Config) { c.HopCycles = 1 << 62 }, "HopCycles must be at most 4294967296"},
	{"dram latency wraps the clock", func(c *Config) { c.DRAMCycles = 1 << 63 }, "DRAMCycles must be at most"},
	{"inject latency wraps the clock", func(c *Config) { c.InjectCycles = 1 << 62 }, "InjectCycles must be at most"},
	{"dsm latency wraps the clock", func(c *Config) { c.Backend = BackendDSM; c.DSMRemoteCycles = 1 << 63 }, "DSMRemoteCycles must be at most"},
	// Operand caches and sync tables that ran out of memory in
	// core.New, or built a table scanned end to end on every AMO.
	{"amu cache out of memory", func(c *Config) { c.AMUCacheWords = 1 << 36 }, "AMUCacheWords must be at most 256"},
	{"amu cache of 16M words", func(c *Config) { c.AMUCacheWords = 1 << 24 }, "AMUCacheWords must be at most"},
	{"amu cache over bound", func(c *Config) { c.AMUCacheWords = core.MaxCacheWords + 1 }, "AMUCacheWords must be at most"},
	{"million sync partitions", func(c *Config) { c.Backend = BackendSynCron; c.SyncPartitions = 1 << 20 }, "1048576 partitions"},
	{"sync tables over bound", func(c *Config) {
		c.Backend = BackendSynCron
		c.SyncPartitions = 4
		c.SyncTableEntries = core.MaxCacheWords / 2
	}, "table entries per node must be at most 256"},
	// Latencies on which the LL/SC barrier and ticket lock never
	// finish: the intervention beats the store conditional.
	{"llsc dir 2", func(c *Config) { c.DirCycles = 2 }, "DirCycles (2) must exceed IssueCycles + L1HitCycles (3)"},
	{"llsc dir 3", func(c *Config) { c.DirCycles = 3 }, "DirCycles (3) must exceed"},
	{"llsc issue 8", func(c *Config) { c.IssueCycles = 8 }, "DirCycles (8) must exceed IssueCycles + L1HitCycles (10)"},
	{"llsc l1 hit 8", func(c *Config) { c.L1HitCycles = 8 }, "DirCycles (8) must exceed"},
	{"llsc l1 hit 16", func(c *Config) { c.L1HitCycles = 16 }, "DirCycles (8) must exceed"},
	{"llsc dir 3 syncron", func(c *Config) { c.Backend = BackendSynCron; c.DirCycles = 3 }, "on the syncron backend"},
}

// RejectedConfigs returns validateRejections' configurations, which seed
// FuzzConfig's corpus.
func RejectedConfigs() []Config {
	var out []Config
	for _, tc := range validateRejections {
		c := Default(8)
		tc.mutate(&c)
		out = append(out, c)
	}
	return out
}

func TestValidateRejections(t *testing.T) {
	for _, tc := range validateRejections {
		t.Run(tc.name, func(t *testing.T) {
			c := Default(8)
			tc.mutate(&c)
			err := c.Validate()
			if err == nil {
				t.Fatal("Validate() = nil, want error")
			}
			if !strings.Contains(err.Error(), tc.substr) {
				t.Fatalf("error %q does not mention %q", err, tc.substr)
			}
			var fe *FieldError
			if !errors.As(err, &fe) {
				t.Fatalf("Validate() = %T (%v), want *FieldError", err, err)
			}
		})
	}
}

// cyclesFields lists the Config fields named ...Cycles, by reflection, so a
// latency added later is covered by the bound checks below.
func cyclesFields(t *testing.T) []string {
	t.Helper()
	var names []string
	typ := reflect.TypeOf(Config{})
	for i := 0; i < typ.NumField(); i++ {
		if f := typ.Field(i); strings.HasSuffix(f.Name, "Cycles") {
			if f.Type.Kind() != reflect.Uint64 {
				t.Fatalf("%s is %s, want uint64", f.Name, f.Type)
			}
			names = append(names, f.Name)
		}
	}
	if len(names) < 16 {
		t.Fatalf("found %d ...Cycles fields, want at least 16", len(names))
	}
	return names
}

// setCycles sets every ...Cycles field of c, except those in skip, to v.
func setCycles(t *testing.T, c *Config, v uint64, skip ...string) {
	t.Helper()
	rv := reflect.ValueOf(c).Elem()
	for _, name := range cyclesFields(t) {
		if !slices.Contains(skip, name) {
			rv.FieldByName(name).SetUint(v)
		}
	}
}

// TestValidateBoundsEveryCyclesField: each latency field one past
// MaxCycles is rejected with a FieldError naming that field.
func TestValidateBoundsEveryCyclesField(t *testing.T) {
	for _, name := range cyclesFields(t) {
		c := Default(8)
		c.Backend = BackendDSM
		reflect.ValueOf(&c).Elem().FieldByName(name).SetUint(MaxCycles + 1)
		var fe *FieldError
		if err := c.Validate(); !errors.As(err, &fe) || fe.Field != name {
			t.Errorf("%s = MaxCycles+1: Validate() = %v, want a FieldError on %s", name, err, name)
		}
	}
}

// TestValidateReturnsFieldError pins the typed-error contract: every
// Validate failure is a *FieldError naming the offending field, so callers
// (and NewMachine's callers) can branch on the knob without parsing text.
func TestValidateReturnsFieldError(t *testing.T) {
	c := Default(8)
	c.HopCycles = 0
	err := c.Validate()
	var fe *FieldError
	if !errors.As(err, &fe) {
		t.Fatalf("Validate() = %T (%v), want *FieldError", err, err)
	}
	if fe.Field != "HopCycles" {
		t.Fatalf("FieldError.Field = %q, want HopCycles", fe.Field)
	}
	if fe.Reason == "" || !strings.Contains(fe.Error(), "config:") {
		t.Fatalf("unhelpful FieldError: %+v", fe)
	}
}

// TestValidateAdmitsSizeBounds is the positive counterpart of the size
// bounds: the largest scale the repository runs (4096 CPUs, also at one per
// node), caches, node counts, latencies and sync tables exactly at the
// bounds, and every operand-cache and sync-table size the repository runs,
// all validate.
func TestValidateAdmitsSizeBounds(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Config)
	}{
		{"4096 cpus", func(c *Config) { c.Processors = 4096 }},
		{"4096 cpus one per node", func(c *Config) { c.Processors = 4096; c.ProcsPerNode = 1 }},
		{"max nodes", func(c *Config) { c.Processors = 2 * topology.MaxNodes }},
		{"max lines in sets", func(c *Config) { c.CacheSets = cache.MaxLines; c.CacheWays = 1 }},
		{"max lines in ways", func(c *Config) { c.CacheSets = 1; c.CacheWays = cache.MaxLines }},
		{"every latency at MaxCycles on dsm", func(c *Config) {
			c.Backend = BackendDSM
			setCycles(t, c, MaxCycles)
		}},
		{"every latency but the LL/SC pair at MaxCycles", func(c *Config) {
			setCycles(t, c, MaxCycles, "IssueCycles", "L1HitCycles")
		}},
		{"amu cache at bound", func(c *Config) { c.AMUCacheWords = core.MaxCacheWords }},
		{"sync tables at bound", func(c *Config) {
			c.Backend = BackendSynCron
			c.SyncPartitions = 4
			c.SyncTableEntries = core.MaxCacheWords / 4
		}},
		{"dir just above the LL/SC boundary", func(c *Config) {
			c.IssueCycles, c.L1HitCycles, c.DirCycles = 8, 16, 25
		}},
	}
	for _, tc := range cases {
		c := Default(8)
		tc.mutate(&c)
		if err := c.Validate(); err != nil {
			t.Errorf("%s: Validate() = %v, want nil", tc.name, err)
		}
	}
	// The operand-cache and sync-table sizes the repository runs.
	for _, words := range []int{0, 1, 2, 8} {
		c := Default(8)
		c.AMUCacheWords = words
		if err := c.Validate(); err != nil {
			t.Errorf("amu cache %d words: Validate() = %v, want nil", words, err)
		}
	}
	for _, parts := range []int{1, 2, 4} {
		for _, entries := range []int{2, 8} {
			c := Default(8)
			c.Backend, c.SyncPartitions, c.SyncTableEntries = BackendSynCron, parts, entries
			if err := c.Validate(); err != nil {
				t.Errorf("syncron %d x %d: Validate() = %v, want nil", parts, entries, err)
			}
		}
	}
}

// TestTorusAcceptsPow2Nodes is the positive counterpart of the torus check;
// fat trees keep accepting any node count (the 3-node workload configs).
func TestTorusAcceptsPow2Nodes(t *testing.T) {
	c := Default(8) // 4 nodes
	c.Interconnect = "torus"
	if err := c.Validate(); err != nil {
		t.Fatalf("Validate() = %v, want nil", err)
	}
	f := Default(6) // 3 nodes, fattree
	if err := f.Validate(); err != nil {
		t.Fatalf("fattree Validate() = %v, want nil", err)
	}
}

func TestAMUCacheCanBeDisabled(t *testing.T) {
	c := Default(8)
	c.AMUCacheWords = 0 // ablation A1 needs this to be legal
	if err := c.Validate(); err != nil {
		t.Fatalf("Validate() = %v, want nil", err)
	}
}
