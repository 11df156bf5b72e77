// Quickstart: build an 8-CPU simulated machine, run ten AMO barriers, and
// print what happened — cycles per barrier, network traffic, and the AMU's
// view of the barrier variable. Then decode the instruction word an AMO
// barrier arrival would execute, and run a small measured sweep through
// the Experiment API.
package main

import (
	"context"
	"fmt"
	"log"

	"amosim"
)

func main() {
	log.SetFlags(0)

	cfg := amosim.DefaultConfig(8) // 8 CPUs on 4 nodes, Table 1 timing
	m, err := amosim.NewMachine(cfg)
	if err != nil {
		log.Fatal(err)
	}
	defer m.Shutdown()

	const episodes = 10
	b := amosim.NewBarrier(m, amosim.AMO, cfg.Processors, 0)

	// Every CPU does a little local work, then synchronizes; ten times.
	m.OnAllCPUs(func(c *amosim.CPU) {
		for e := 0; e < episodes; e++ {
			c.Think(uint64(50 + 13*c.ID()))
			b.Wait(c)
		}
	})

	cycles, err := m.Run()
	if err != nil {
		log.Fatal(err)
	}

	snap := m.Metrics()
	fmt.Printf("ran %d AMO barriers across %d CPUs in %d cycles (%.0f cycles/barrier)\n",
		episodes, cfg.Processors, cycles, float64(cycles)/episodes)
	fmt.Printf("network: %d messages, %d bytes, %d byte-hops\n",
		snap.Network.Messages, snap.Network.Bytes, snap.Network.ByteHops)

	amu := snap.Nodes[0].AMU
	fmt.Printf("home AMU: %d amo.inc ops, %d operand-cache hits, %d fine-grained updates pushed\n",
		amu.Ops, amu.CacheHits, amu.FinePuts)

	// Where did the cycles go? The snapshot's attribution conserves exactly.
	att := snap.Attribution()
	fmt.Printf("cycle attribution: %d compute, %d memory stall, %d spin/idle (of %d CPU-cycles)\n",
		att.Compute, att.MemoryStall, att.SpinIdle, att.TotalCPUCycles)

	// The instruction a barrier arrival executes, as the ISA sees it.
	word, err := amosim.EncodeAMO(amosim.AMOInstr{
		Op:   amosim.OpInc,
		Base: 4, Value: 5, Dest: 2,
		Test: true,
	})
	if err != nil {
		log.Fatal(err)
	}
	instr, _ := amosim.DecodeAMO(word)
	fmt.Printf("barrier arrival instruction: %#08x  %s\n", word, instr.Mnemonic())

	// For measured experiments, prefer the Experiment API over calling
	// RunBarrier/RunLock directly: a Spec expands into independent sweep
	// points that run in parallel across workers, repeated cells are served
	// from the result cache, and the ordered results are byte-identical at
	// any worker count.
	spec := amosim.BarrierExperiment{Procs: []int{4, 8}, Mechs: []amosim.Mechanism{amosim.LLSC, amosim.AMO}}
	runner := amosim.DefaultRunner()
	vals, err := runner.RunSweep(context.Background(), spec)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("measured sweep (warm-up + windowed measurement per point):")
	for i, pt := range spec.Points() {
		r := vals[i].(amosim.BarrierResult)
		fmt.Printf("  %-20s %8.1f cycles/barrier\n", pt.Label, r.CyclesPerBarrier)
	}

	// Application workloads are one table of specs: look one up by name
	// (amosim.WorkloadSpecs() lists all of them) and build its sweep point.
	// Every spec parameter appears in both the point's label and its cache
	// key, and the kernel verifies its output against a host oracle.
	wspec, ok := amosim.WorkloadSpecByName("histogram")
	if !ok {
		log.Fatal("histogram workload not registered")
	}
	wpt := wspec.Point(cfg, amosim.AMO, amosim.WorkloadRunConfig{})
	wvals, err := runner.RunSweepPoints(context.Background(), []amosim.SweepPoint{wpt})
	if err != nil {
		log.Fatal(err)
	}
	wr := wvals[0].(amosim.WorkloadResult)
	fmt.Printf("workload %s: %d cycles, %d network messages (verified against host oracle)\n",
		wr.Name, wr.Cycles, wr.NetMessages)

	// The open-loop traffic specs additionally take an offered arrival
	// rate and report sojourn-time percentiles.
	tspec, ok := amosim.TrafficWorkloadSpec("mpmc", amosim.TrafficOptions{Rate: 2, Requests: 200})
	if !ok {
		log.Fatal("mpmc traffic workload not registered")
	}
	tvals, err := runner.RunSweepPoints(context.Background(), []amosim.SweepPoint{tspec.Point(cfg, amosim.AMO, amosim.WorkloadRunConfig{})})
	if err != nil {
		log.Fatal(err)
	}
	tr := tvals[0].(amosim.TrafficResult)
	fmt.Printf("traffic %s at %d req/kcycle: achieved %.2f, p50 %d / p99 %d cycles sojourn\n",
		tr.Name, tr.Rate, tr.Achieved, tr.Latency.P50, tr.Latency.P99)
}
