package amosim

// Benchmark harness: one benchmark per table/figure of the paper's
// evaluation (E1..E7 in DESIGN.md) plus the ablations (A1..A3). Each
// iteration re-runs the full experiment on a fresh simulated machine; the
// interesting output is the simulated-cycle metrics reported per benchmark
// (simcyc/barrier, simcyc/pass, ...), not the host ns/op.
//
// Run everything:   go test -bench=. -benchmem
// One table:        go test -bench=BenchmarkTable2 -benchtime=1x
// Quick pass:       go test -bench=. -short -benchtime=1x

import (
	"fmt"
	"testing"
)

func benchProcs(full []int, short []int, b *testing.B) []int {
	if testing.Short() {
		return short
	}
	_ = b
	return full
}

// BenchmarkFig1MessageCount regenerates Figure 1 (E1): one-way network
// messages for a 3-CPU barrier arrival phase.
func BenchmarkFig1MessageCount(b *testing.B) {
	b.ReportAllocs()
	for _, mech := range Mechanisms {
		b.Run(mech.String(), func(b *testing.B) {
			b.ReportAllocs()
			var msgs uint64
			for i := 0; i < b.N; i++ {
				n, err := IncrementMessageCount(mech)
				if err != nil {
					b.Fatal(err)
				}
				msgs = n
			}
			b.ReportMetric(float64(msgs), "netmsgs")
		})
	}
}

// BenchmarkTable2Barriers regenerates Table 2 (E2): flat barriers, every
// mechanism, every scale. The simcyc/barrier metric is the table input; the
// speedup column is cycles(LL/SC)/cycles(mech).
func BenchmarkTable2Barriers(b *testing.B) {
	b.ReportAllocs()
	procs := benchProcs(Table2Procs, []int{4, 16}, b)
	for _, p := range procs {
		for _, mech := range Mechanisms {
			b.Run(fmt.Sprintf("p%d/%s", p, mech), func(b *testing.B) {
				b.ReportAllocs()
				cfg := DefaultConfig(p)
				var r BarrierResult
				for i := 0; i < b.N; i++ {
					var err error
					r, err = RunBarrier(cfg, mech, BarrierOptions{})
					if err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(r.CyclesPerBarrier, "simcyc/barrier")
				b.ReportMetric(r.CyclesPerProc, "simcyc/proc")
				b.ReportMetric(r.NetMessagesPerBarrier, "netmsgs/barrier")
			})
		}
	}
}

// BenchmarkFig5CyclesPerProcessor regenerates Figure 5 (E3). It shares runs
// with Table 2 conceptually; kept separate so the figure can be regenerated
// alone, and sampled at four scales by default (amotables -only fig5 prints
// the full sweep).
func BenchmarkFig5CyclesPerProcessor(b *testing.B) {
	b.ReportAllocs()
	procs := benchProcs([]int{4, 16, 64, 256}, []int{4, 16}, b)
	for _, p := range procs {
		for _, mech := range Mechanisms {
			b.Run(fmt.Sprintf("p%d/%s", p, mech), func(b *testing.B) {
				b.ReportAllocs()
				cfg := DefaultConfig(p)
				var r BarrierResult
				for i := 0; i < b.N; i++ {
					var err error
					r, err = RunBarrier(cfg, mech, BarrierOptions{})
					if err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(r.CyclesPerProc, "simcyc/proc")
			})
		}
	}
}

// BenchmarkTable3TreeBarriers regenerates Table 3 (E4): two-level combining
// trees with the best branching factor per cell, plus the flat AMO column.
func BenchmarkTable3TreeBarriers(b *testing.B) {
	b.ReportAllocs()
	procs := benchProcs([]int{16, 64, 256}, []int{16}, b)
	for _, p := range procs {
		for _, mech := range Mechanisms {
			b.Run(fmt.Sprintf("p%d/%s+tree", p, mech), func(b *testing.B) {
				b.ReportAllocs()
				cfg := DefaultConfig(p)
				var r BarrierResult
				for i := 0; i < b.N; i++ {
					var err error
					r, err = BestTreeBarrier(cfg, mech, BarrierOptions{})
					if err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(r.CyclesPerBarrier, "simcyc/barrier")
				b.ReportMetric(float64(r.Branching), "best-branching")
			})
		}
		b.Run(fmt.Sprintf("p%d/AMO-flat", p), func(b *testing.B) {
			b.ReportAllocs()
			cfg := DefaultConfig(p)
			var r BarrierResult
			for i := 0; i < b.N; i++ {
				var err error
				r, err = RunBarrier(cfg, AMO, BarrierOptions{})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(r.CyclesPerBarrier, "simcyc/barrier")
		})
	}
}

// BenchmarkFig6TreeCyclesPerProcessor regenerates Figure 6 (E5).
func BenchmarkFig6TreeCyclesPerProcessor(b *testing.B) {
	b.ReportAllocs()
	procs := benchProcs([]int{16, 256}, []int{16}, b)
	for _, p := range procs {
		for _, mech := range Mechanisms {
			b.Run(fmt.Sprintf("p%d/%s+tree", p, mech), func(b *testing.B) {
				b.ReportAllocs()
				cfg := DefaultConfig(p)
				var r BarrierResult
				for i := 0; i < b.N; i++ {
					var err error
					r, err = BestTreeBarrier(cfg, mech, BarrierOptions{})
					if err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(r.CyclesPerProc, "simcyc/proc")
			})
		}
	}
}

// BenchmarkTable4Locks regenerates Table 4 (E6): ticket and array locks
// under every mechanism; speedups are over the LL/SC ticket lock's
// simcyc/pass.
func BenchmarkTable4Locks(b *testing.B) {
	b.ReportAllocs()
	procs := benchProcs([]int{4, 16, 64, 256}, []int{4, 16}, b)
	for _, p := range procs {
		for _, mech := range Mechanisms {
			for _, kind := range []LockKind{Ticket, Array} {
				b.Run(fmt.Sprintf("p%d/%s/%s", p, mech, kind), func(b *testing.B) {
					b.ReportAllocs()
					cfg := DefaultConfig(p)
					var r LockResult
					for i := 0; i < b.N; i++ {
						var err error
						r, err = RunLock(cfg, kind, mech, LockOptions{})
						if err != nil {
							b.Fatal(err)
						}
					}
					b.ReportMetric(r.CyclesPerPass, "simcyc/pass")
					b.ReportMetric(r.MessagesPerPass, "netmsgs/pass")
				})
			}
		}
	}
}

// BenchmarkFig7LockTraffic regenerates Figure 7 (E7): ticket-lock network
// traffic (byte-hops over the measured window), normalized offline against
// the LL/SC row.
func BenchmarkFig7LockTraffic(b *testing.B) {
	b.ReportAllocs()
	procs := benchProcs(Figure7Procs, []int{16}, b)
	for _, p := range procs {
		for _, mech := range Mechanisms {
			b.Run(fmt.Sprintf("p%d/%s", p, mech), func(b *testing.B) {
				b.ReportAllocs()
				cfg := DefaultConfig(p)
				var r LockResult
				for i := 0; i < b.N; i++ {
					var err error
					r, err = RunLock(cfg, Ticket, mech, LockOptions{})
					if err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(r.ByteHops), "bytehops")
				b.ReportMetric(float64(r.NetMessages), "netmsgs")
			})
		}
	}
}

// BenchmarkAblationAMUCache regenerates ablation A1: AMO barrier cost as
// the AMU operand cache shrinks from 8 words to none.
func BenchmarkAblationAMUCache(b *testing.B) {
	b.ReportAllocs()
	procs := benchProcs([]int{16, 64, 256}, []int{16}, b)
	for _, p := range procs {
		for _, words := range []int{0, 1, 8} {
			b.Run(fmt.Sprintf("p%d/words%d", p, words), func(b *testing.B) {
				b.ReportAllocs()
				cfg := DefaultConfig(p)
				cfg.AMUCacheWords = words
				var r BarrierResult
				for i := 0; i < b.N; i++ {
					var err error
					r, err = RunBarrier(cfg, AMO, BarrierOptions{})
					if err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(r.CyclesPerBarrier, "simcyc/barrier")
			})
		}
	}
}

// BenchmarkAblationDelayedUpdate regenerates ablation A2: the paper's
// delayed (test-value-gated) update versus updating on every increment.
func BenchmarkAblationDelayedUpdate(b *testing.B) {
	b.ReportAllocs()
	procs := benchProcs([]int{16, 64, 256}, []int{16}, b)
	for _, p := range procs {
		cfg := DefaultConfig(p)
		b.Run(fmt.Sprintf("p%d/delayed", p), func(b *testing.B) {
			b.ReportAllocs()
			var r BarrierResult
			for i := 0; i < b.N; i++ {
				var err error
				r, err = RunBarrier(cfg, AMO, BarrierOptions{})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(r.CyclesPerBarrier, "simcyc/barrier")
			b.ReportMetric(r.NetMessagesPerBarrier, "netmsgs/barrier")
		})
		b.Run(fmt.Sprintf("p%d/always", p), func(b *testing.B) {
			b.ReportAllocs()
			var r BarrierResult
			for i := 0; i < b.N; i++ {
				var err error
				r, err = RunBarrier(cfg, AMO, BarrierOptions{AMOUpdateAlways: true})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(r.CyclesPerBarrier, "simcyc/barrier")
			b.ReportMetric(r.NetMessagesPerBarrier, "netmsgs/barrier")
		})
	}
}

// BenchmarkAblationTreeBranching regenerates ablation A3: the tree-barrier
// branching-factor grid for the LL/SC mechanism.
func BenchmarkAblationTreeBranching(b *testing.B) {
	b.ReportAllocs()
	procs := benchProcs([]int{64, 256}, []int{16}, b)
	for _, p := range procs {
		for _, br := range TreeBranchings(p) {
			b.Run(fmt.Sprintf("p%d/b%d", p, br), func(b *testing.B) {
				b.ReportAllocs()
				cfg := DefaultConfig(p)
				var r BarrierResult
				for i := 0; i < b.N; i++ {
					var err error
					r, err = RunBarrier(cfg, LLSC, BarrierOptions{Branching: br})
					if err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(r.CyclesPerBarrier, "simcyc/barrier")
			})
		}
	}
}

// BenchmarkApplications regenerates the application table (E8): verified
// parallel kernels end to end under LL/SC, MAO and AMO synchronization.
func BenchmarkApplications(b *testing.B) {
	b.ReportAllocs()
	procs := benchProcs([]int{16, 64}, []int{16}, b)
	for _, p := range procs {
		for _, mech := range []Mechanism{LLSC, MAO, AMO} {
			b.Run(fmt.Sprintf("p%d/stencil/%s", p, mech), func(b *testing.B) {
				b.ReportAllocs()
				var cycles uint64
				for i := 0; i < b.N; i++ {
					r, err := appStencil(DefaultConfig(p), mech)
					if err != nil {
						b.Fatal(err)
					}
					cycles = r
				}
				b.ReportMetric(float64(cycles), "simcyc/app")
			})
		}
	}
}

// BenchmarkExtensionMCS regenerates the MCS extension rows.
func BenchmarkExtensionMCS(b *testing.B) {
	b.ReportAllocs()
	procs := benchProcs([]int{16, 64, 256}, []int{16}, b)
	for _, p := range procs {
		for _, mech := range []Mechanism{LLSC, AMO} {
			b.Run(fmt.Sprintf("p%d/%s/mcs", p, mech), func(b *testing.B) {
				b.ReportAllocs()
				cfg := DefaultConfig(p)
				var r LockResult
				for i := 0; i < b.N; i++ {
					var err error
					r, err = RunLock(cfg, MCS, mech, LockOptions{})
					if err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(r.CyclesPerPass, "simcyc/pass")
			})
		}
	}
}

// BenchmarkSimulatorThroughput measures raw host-side simulator speed: how
// fast the discrete-event kernel retires one AMO barrier experiment. This
// is the only benchmark where ns/op is the point.
func BenchmarkSimulatorThroughput(b *testing.B) {
	cfg := DefaultConfig(32)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := RunBarrier(cfg, AMO, BarrierOptions{Episodes: 4, Warmup: 1}); err != nil {
			b.Fatal(err)
		}
	}
}
