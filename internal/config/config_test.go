package config

import (
	"errors"
	"strings"
	"testing"

	"amosim/internal/cache"
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

func TestValidateRejections(t *testing.T) {
	cases := []struct {
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
	}
	for _, tc := range cases {
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
		})
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
// node), and caches and node counts exactly at the bounds, all validate.
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
	}
	for _, tc := range cases {
		c := Default(8)
		tc.mutate(&c)
		if err := c.Validate(); err != nil {
			t.Errorf("%s: Validate() = %v, want nil", tc.name, err)
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
