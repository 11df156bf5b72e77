package machine

import (
	"errors"
	"fmt"
	"runtime"
	"testing"

	"amosim/internal/config"
	"amosim/internal/sim"
)

// parallelConfig is the default machine at procs CPUs on the parallel
// kernel with the given shard count.
func parallelConfig(procs, shards int) config.Config {
	cfg := config.Default(procs)
	cfg.Engine = "parallel"
	cfg.Shards = shards
	return cfg
}

// TestLookaheadWindowPinned pins the parallel kernel's lookahead window,
// the minimum cross-shard hop distance times HopCycles, on both
// interconnects at 2, 4 and 8 shards. On the fat tree the contiguous
// partition's nearest cross-shard pair shares a router one to four levels
// up, so the window is 200–800 cycles; every torus partition has
// neighbouring nodes one hop apart.
func TestLookaheadWindowPinned(t *testing.T) {
	cases := []struct {
		interconnect string
		procs        int
		want         [3]sim.Time // at 2, 4 and 8 shards
	}{
		{"fattree", 16, [3]sim.Time{200, 200, 200}},
		{"fattree", 64, [3]sim.Time{400, 400, 200}},
		{"fattree", 256, [3]sim.Time{600, 400, 400}},
		{"fattree", 1024, [3]sim.Time{600, 600, 600}},
		{"fattree", 4096, [3]sim.Time{800, 800, 600}},
		{"torus", 16, [3]sim.Time{100, 100, 100}},
		{"torus", 64, [3]sim.Time{100, 100, 100}},
		{"torus", 256, [3]sim.Time{100, 100, 100}},
		{"torus", 1024, [3]sim.Time{100, 100, 100}},
		{"torus", 4096, [3]sim.Time{100, 100, 100}},
	}
	for _, c := range cases {
		for i, shards := range []int{2, 4, 8} {
			t.Run(fmt.Sprintf("%s/procs=%d/shards=%d", c.interconnect, c.procs, shards), func(t *testing.T) {
				cfg := parallelConfig(c.procs, shards)
				cfg.Interconnect = c.interconnect
				m, err := New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				defer m.Shutdown()
				if got := m.Eng.(*sim.Parallel).Window(); got != c.want[i] {
					t.Fatalf("Window() = %d, want %d", got, c.want[i])
				}
			})
		}
	}
}

// TestNewAllocatesWhatItTouches bounds the bytes one 1024-CPU machine
// allocates at construction. Caches allocate a set on first touch and hop
// distances are computed, not tabled, so construction stays well under the
// 30 MB that eager per-CPU line arrays cost.
func TestNewAllocatesWhatItTouches(t *testing.T) {
	const limit = 8 << 20
	cfg := parallelConfig(1024, 2)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	m, err := New(cfg)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	m.Shutdown()
	if got := after.TotalAlloc - before.TotalAlloc; got > limit {
		t.Fatalf("New(Default(1024)) allocated %d bytes, want at most %d", got, limit)
	}
}

// TestNewRejectsOversizedGeometry: sizes that construction would allocate
// from come back as typed errors before anything is built, where an
// unbounded cache once died with an unrecoverable out-of-memory error.
func TestNewRejectsOversizedGeometry(t *testing.T) {
	for _, mutate := range []func(*config.Config){
		func(c *config.Config) { c.CacheSets = 1 << 40 },
		func(c *config.Config) { c.Processors = 1 << 22; c.ProcsPerNode = 1 },
	} {
		cfg := config.Default(4)
		mutate(&cfg)
		var fe *config.FieldError
		if _, err := New(cfg); !errors.As(err, &fe) {
			t.Errorf("New = %v, want a *config.FieldError", err)
		}
	}
}

// BenchmarkNew measures building one 1024-CPU machine on the parallel
// kernel at two shards.
func BenchmarkNew(b *testing.B) {
	cfg := parallelConfig(1024, 2)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m, err := New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		m.Shutdown()
	}
}
