package amosim

import (
	"fmt"
	"testing"
)

// TestScaleMatrix runs the Combining cluster barrier — the one primitive
// designed for these scales, and cheap enough to simulate at 4096 CPUs —
// at every scale the crossover experiment sweeps, on both event kernels,
// and demands the machine quiesce with every coherence invariant intact: a
// hung combiner or lost release at scale would deadlock or corrupt state.
// The differential matrix compares the same scales' sweep documents across
// worker counts and kernels. The 4096-CPU column is skipped under -short.
func TestScaleMatrix(t *testing.T) {
	engines := []struct {
		name string
		rc   RunConfig
	}{
		{"seq", RunConfig{}},
		{"pdes8", RunConfig{Engine: "parallel", Shards: 8}},
	}
	for _, p := range []int{64, 256, 1024, 4096} {
		for _, eng := range engines {
			t.Run(fmt.Sprintf("p%d/%s", p, eng.name), func(t *testing.T) {
				if p >= 4096 && testing.Short() {
					t.Skip("4096-CPU column skipped in short mode")
				}
				m, err := NewMachine(eng.rc.apply(DefaultConfig(p)))
				if err != nil {
					t.Fatal(err)
				}
				defer m.Shutdown()
				cb := NewCombiningBarrier(m, Combining, p, 0, 0)
				m.OnAllCPUs(func(c *CPU) {
					for e := 0; e < 3; e++ {
						c.Think(uint64((c.ID()*37 + e*13) % 96))
						cb.Wait(c)
					}
				})
				cycles, err := m.Run()
				if err != nil {
					t.Fatal(err)
				}
				if cycles == 0 {
					t.Fatal("barrier episodes took zero cycles")
				}
				if err := m.CheckCoherence(); err != nil {
					t.Fatalf("quiescence coherence at p=%d: %v", p, err)
				}
				t.Logf("p=%4d %-5s cluster=%d %10d cycles", p, eng.name, cb.ClusterSize(), cycles)
			})
		}
	}
}
