// Command amosim runs a single synchronization experiment on the simulated
// machine and prints its measurements — the building block the table
// harness (amotables) sweeps.
//
// Examples:
//
//	amosim -primitive barrier -mech AMO -procs 64
//	amosim -primitive barrier -mech LLSC -procs 32 -tree 8
//	amosim -primitive ticket -mech MAO -procs 128 -acquires 8
//	amosim -primitive array -mech Atomic -procs 16
//	amosim -primitive mcs -mech AMO -procs 64
//	amosim -primitive barrier -mech Combining -procs 1024
//	amosim -primitive combining -mech Combining -procs 256 -cluster 16
//	amosim -primitive barrier -mech AMO -procs 32 -metrics out.json
//	amosim -primitive barrier -mech AMO -procs 32 -backend syncron
//	amosim -app mpmc -mech AMO -procs 64 -rate 128 -requests 5000
//	amosim -app bfs -mech LLSC -procs 16 -process fixed
//	amosim -app histogram -mech MAO -procs 32
//
// -app replaces the primitive with a verified application workload: the
// classic phased kernels run closed-loop and report total cycles; the
// open-loop traffic apps inject requests at the offered -rate and report
// sojourn-time percentiles (p50/p99/p999/max) plus the achieved rate and
// a saturation verdict.
//
// The experiment runs as a single point on the sweep engine, so it gets
// the same deadline, deadlock-capture and retry semantics as a table
// sweep.
//
// With -metrics PATH the full result record — including the
// measurement-window metrics Snapshot every printed figure derives from —
// is written to PATH as JSON. The write is self-verifying: the document
// must round-trip (unmarshal + remarshal to identical bytes) and its cycle
// attribution must conserve, or the command fails.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"

	"amosim"
)

// writeMetrics emits result (whose Metrics field is the window snapshot
// diff) as indented JSON after verifying the two invariants the metrics
// layer promises: the document round-trips byte-identically through a
// fresh value of the same type, and the window's cycle attribution
// conserves.
func writeMetrics[T any](path string, result T, win amosim.Snapshot) error {
	if err := win.CheckConservation(); err != nil {
		return err
	}
	out, err := json.MarshalIndent(result, "", "  ")
	if err != nil {
		return err
	}
	var back T
	if err := json.Unmarshal(out, &back); err != nil {
		return fmt.Errorf("metrics JSON does not unmarshal: %w", err)
	}
	again, err := json.MarshalIndent(back, "", "  ")
	if err != nil {
		return err
	}
	if !bytes.Equal(out, again) {
		return fmt.Errorf("metrics JSON does not round-trip byte-identically")
	}
	return os.WriteFile(path, append(out, '\n'), 0o644)
}

// runOne executes a single experiment point on the sweep engine and
// returns its typed result.
func runOne[T any](pt amosim.SweepPoint) (T, error) {
	var zero T
	r := amosim.DefaultRunner()
	vals, err := r.RunSweepPoints(context.Background(), []amosim.SweepPoint{pt})
	if err != nil {
		return zero, err
	}
	return vals[0].(T), nil
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("amosim: ")
	var (
		primitive = flag.String("primitive", "barrier", "barrier, ticket, array, mcs or combining (the cohort lock)")
		mechFlag  = flag.String("mech", "AMO", "LLSC, Atomic, ActMsg, MAO, AMO or Combining")
		backend   = flag.String("backend", "amo", "memory-system backend: amo, syncron or dsm")
		engine    = flag.String("engine", "", "event kernel: seq or parallel (default seq; results are identical)")
		shards    = flag.Int("shards", 0, "parallel-kernel shard count (with -engine parallel; <= 1 runs the sequential kernel)")
		procs     = flag.Int("procs", 32, "processor count")
		episodes  = flag.Int("episodes", 8, "measured barrier episodes")
		warmup    = flag.Int("warmup", 2, "warm-up barrier episodes")
		tree      = flag.Int("tree", 0, "tree-barrier branching factor (0 = centralized)")
		cluster   = flag.Int("cluster", 0, "combining cluster size in CPUs (0 = derive from the topology)")
		acquires  = flag.Int("acquires", 4, "lock acquisitions per CPU")
		amuWords  = flag.Int("amu-cache", 8, "AMU operand-cache words (0 disables)")
		app       = flag.String("app", "", "run a workload instead of a primitive: a classic kernel (stencil, prefixsum, histogram) or an open-loop traffic app (bfs, pagerank, triangles, workqueue, mpmc)")
		rate      = flag.Int("rate", 0, "traffic apps: offered arrival rate in requests per 1000 cycles (0 = default)")
		requests  = flag.Int("requests", 0, "traffic apps: measured request count (0 = default)")
		process   = flag.String("process", "", "traffic apps: arrival process, fixed or poisson (default poisson)")
		metricsTo = flag.String("metrics", "", "write the result (with its window metrics snapshot) to this file as JSON")
		chaosSeed = flag.Uint64("chaos-seed", 0, "fault-injection seed (with -chaos-level)")
		chaosLvl  = flag.Int("chaos-level", 0, "fault-injection intensity: 0 off, 1 mild, 2 hostile; enables runtime invariant oracles")
	)
	flag.Parse()

	mech, err := amosim.ParseMechanism(*mechFlag)
	if err != nil {
		log.Fatal(err)
	}
	cfg := amosim.DefaultConfig(*procs)
	cfg.AMUCacheWords = *amuWords
	cfg.Backend, err = amosim.ParseBackend(*backend)
	if err != nil {
		log.Fatal(err)
	}
	cfg.Engine = *engine
	cfg.Shards = *shards
	if err := cfg.Validate(); err != nil {
		log.Fatal(err)
	}

	if *app != "" {
		wrc := amosim.WorkloadRunConfig{ChaosSeed: *chaosSeed, ChaosLevel: *chaosLvl}
		o := amosim.TrafficOptions{Process: *process, Rate: *rate, Requests: *requests}
		spec, isTraffic := amosim.TrafficWorkloadSpec(*app, o)
		if !isTraffic {
			var ok bool
			spec, ok = amosim.WorkloadSpecByName(*app)
			if !ok {
				log.Fatalf("unknown workload %q (see -help)", *app)
			}
		}
		if isTraffic {
			r, err := runOne[amosim.TrafficResult](spec.Point(cfg, mech, wrc))
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("%s %s traffic, %d CPUs, %s %d req/kcycle, %d requests\n",
				r.Mechanism, r.Name, r.Procs, r.Process, r.Rate, r.Requests)
			if *chaosLvl > 0 {
				fmt.Printf("  chaos: seed %d level %d, invariants clean\n", *chaosSeed, *chaosLvl)
			}
			sat := ""
			if r.Saturated {
				sat = " (saturated)"
			}
			fmt.Printf("  achieved req/kcycle: %12.2f%s\n", r.Achieved, sat)
			fmt.Printf("  p50 sojourn (cyc):   %12d\n", r.Latency.P50)
			fmt.Printf("  p99 sojourn (cyc):   %12d\n", r.Latency.P99)
			fmt.Printf("  p999 sojourn (cyc):  %12d\n", r.Latency.P999)
			fmt.Printf("  max sojourn (cyc):   %12d\n", r.Latency.Max)
			if *metricsTo != "" {
				if err := writeMetrics(*metricsTo, r, r.Metrics); err != nil {
					log.Fatal(err)
				}
			}
			return
		}
		r, err := runOne[amosim.WorkloadResult](spec.Point(cfg, mech, wrc))
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%s %s workload, %d CPUs\n", r.Mechanism, r.Name, r.Procs)
		if *chaosLvl > 0 {
			fmt.Printf("  chaos: seed %d level %d, invariants clean\n", *chaosSeed, *chaosLvl)
		}
		fmt.Printf("  total cycles:        %12d\n", r.Cycles)
		fmt.Printf("  network messages:    %12d\n", r.NetMessages)
		if *metricsTo != "" {
			if err := writeMetrics(*metricsTo, r, r.Metrics); err != nil {
				log.Fatal(err)
			}
		}
		return
	}

	if *primitive == "barrier" {
		r, err := runOne[amosim.BarrierResult](amosim.BarrierPoint(cfg, mech, amosim.BarrierOptions{
			Episodes:    *episodes,
			Warmup:      *warmup,
			Branching:   *tree,
			ClusterSize: *cluster,
			RunConfig:   amosim.RunConfig{ChaosSeed: *chaosSeed, ChaosLevel: *chaosLvl},
		}))
		if err != nil {
			log.Fatal(err)
		}
		kind := "centralized"
		if *tree > 0 {
			kind = fmt.Sprintf("tree(b=%d)", *tree)
		}
		if mech == amosim.Combining {
			kind = "cluster-combining"
		}
		fmt.Printf("%s %s barrier, %d CPUs, %d episodes\n", r.Mechanism, kind, r.Procs, r.Episodes)
		if *chaosLvl > 0 {
			fmt.Printf("  chaos: seed %d level %d, invariants clean\n", *chaosSeed, *chaosLvl)
		}
		fmt.Printf("  cycles/barrier:      %12.1f\n", r.CyclesPerBarrier)
		fmt.Printf("  cycles/processor:    %12.1f\n", r.CyclesPerProc)
		fmt.Printf("  net msgs/barrier:    %12.1f\n", r.NetMessagesPerBarrier)
		fmt.Printf("  byte-hops/barrier:   %12.1f\n", r.ByteHopsPerBarrier)
		if *metricsTo != "" {
			if err := writeMetrics(*metricsTo, r, r.Metrics); err != nil {
				log.Fatal(err)
			}
		}
		return
	}

	kind, err := amosim.ParseLockKind(*primitive)
	if err != nil {
		log.Fatalf("unknown primitive %q (barrier, ticket, array, mcs, combining)", *primitive)
	}
	r, err := runOne[amosim.LockResult](amosim.LockPoint(cfg, kind, mech, amosim.LockOptions{
		Acquires:    *acquires,
		ClusterSize: *cluster,
		RunConfig:   amosim.RunConfig{ChaosSeed: *chaosSeed, ChaosLevel: *chaosLvl},
	}))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%s %s lock, %d CPUs, %d acquires/CPU\n", r.Mechanism, r.Kind, r.Procs, r.Acquires)
	if *chaosLvl > 0 {
		fmt.Printf("  chaos: seed %d level %d, invariants clean\n", *chaosSeed, *chaosLvl)
	}
	fmt.Printf("  cycles/lock pass:    %12.1f\n", r.CyclesPerPass)
	fmt.Printf("  net msgs/pass:       %12.2f\n", r.MessagesPerPass)
	fmt.Printf("  window byte-hops:    %12d\n", r.ByteHops)
	if *metricsTo != "" {
		if err := writeMetrics(*metricsTo, r, r.Metrics); err != nil {
			log.Fatal(err)
		}
	}
}
