// Command amotables regenerates the tables and figures of the paper's
// evaluation section (and this reproduction's ablations) on the simulated
// machine, printing plain-text tables to stdout.
//
// Usage:
//
//	amotables -only all
//	amotables -only table2 -procs 4,8,16,32
//	amotables -only table4 -acquires 8
//	amotables -only all -workers 8 -progress
//	amotables -list
//	amotables -bench hotpath -gate BENCH_hotpath.json
//
// Experiments come from the amosim.Experiments() registry; -list prints
// every name with its description. -only selects one by name, "all" (the
// default) runs the registry in order. -backend runs the selected
// experiments on an alternative memory-system backend (syncron, dsm); the
// "backends" experiment compares all three side by side. The "traffic"
// experiment takes -traffic-rates, -traffic-requests, and
// -traffic-process.
//
// Every experiment runs on the parallel sweep engine: -workers sets the
// worker-pool size (default: all CPUs; 1 forces the sequential path), and
// output is byte-identical at any worker count. Cells shared between
// experiments (Table 2 and Figure 5 cover the same grid) are simulated
// once per process via the result cache. -progress reports per-point
// completion on stderr.
//
// -bench NAME instead runs one pinned bench workload (metrics, hotpath,
// pdes, crossover or traffic) and writes its JSON document to stdout; the
// repo checks each in as BENCH_NAME.json, regenerated with
//
//	amotables -bench NAME > BENCH_NAME.json
//
// -gate FILE then compares the fresh document against the baseline FILE
// and exits nonzero on drift: plain fields must match exactly, Host*
// fields are host measurements, held within 20% of the baseline only
// where the document tags them.
//
// -cpuprofile and -memprofile write pprof profiles of whatever the
// invocation runs; sweep points are labeled (pprof tag "sweep_point") so
// profile samples attribute to the experiment cell that produced them.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"
	"runtime/pprof"
	"slices"
	"strconv"
	"strings"

	"amosim"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("amotables: ")
	var (
		only     = flag.String("only", "all", "experiment name from the registry (see -list), or \"all\"")
		list     = flag.Bool("list", false, "print the experiment registry and exit")
		procs    = flag.String("procs", "", "comma-separated processor counts (default: the paper's sweep for the experiment)")
		episodes = flag.Int("episodes", 8, "measured barrier episodes")
		warmup   = flag.Int("warmup", 2, "warm-up barrier episodes")
		acquires = flag.Int("acquires", 4, "lock acquisitions per CPU")
		workers  = flag.Int("workers", runtime.NumCPU(), "sweep worker-pool size (1 = sequential; results are identical at any value)")
		progress = flag.Bool("progress", false, "report per-point sweep completion on stderr")
		mech     = flag.String("mech", "llsc", "mechanism for ablation-tree (llsc, atomic, actmsg, mao, amo)")
		backend  = flag.String("backend", "amo", "memory-system backend for every experiment: amo, syncron or dsm")
		engine   = flag.String("engine", "", "event kernel for barrier/lock experiments: seq or parallel (output is identical)")
		shards   = flag.Int("shards", 0, "parallel-kernel shard count (with -engine parallel; <= 1 runs the sequential kernel)")
		bench    = flag.String("bench", "", "write the named bench document ("+strings.Join(amosim.BenchNames(), ", ")+") to stdout as JSON, then exit")
		gate     = flag.String("gate", "", "with -bench: baseline document to compare the fresh one against; exit nonzero on drift")
		tRates   = flag.String("traffic-rates", "", "comma-separated offered rates (req/kcycle) for the traffic experiment")
		tReqs    = flag.Int("traffic-requests", 0, "measured requests per traffic cell (0 = default)")
		tProcess = flag.String("traffic-process", "", "arrival process for the traffic experiment: fixed or poisson")
		cpuProf  = flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
		memProf  = flag.String("memprofile", "", "write a heap profile at exit to this file")
	)
	flag.Parse()

	if *list {
		for _, e := range amosim.Experiments() {
			fmt.Printf("%-22s %s\n", e.Name, e.Describe)
		}
		return
	}
	if *gate != "" && *bench == "" {
		log.Print("-gate needs -bench")
		flag.Usage()
		os.Exit(2)
	}
	if *bench != "" && !slices.Contains(amosim.BenchNames(), *bench) {
		log.Printf("unknown bench document %q (have %s)", *bench, strings.Join(amosim.BenchNames(), ", "))
		os.Exit(2)
	}

	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			log.Fatal(err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProf != "" {
		defer func() {
			f, err := os.Create(*memProf)
			if err != nil {
				log.Fatal(err)
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				log.Fatal(err)
			}
		}()
	}

	runner := amosim.Runner{Workers: *workers}
	if *progress {
		runner.Progress = func(e amosim.SweepEvent) {
			note := ""
			if e.Cached {
				note = " (cached)"
			}
			fmt.Fprintf(os.Stderr, "amotables: [%d/%d] %s%s\n", e.Done, e.Total, e.Label, note)
		}
	}
	amosim.SetDefaultRunner(runner)

	if *bench != "" {
		doc, err := amosim.Bench(*bench)
		if err != nil {
			log.Fatal(err)
		}
		if _, err := os.Stdout.Write(doc); err != nil {
			log.Fatal(err)
		}
		if *gate != "" {
			baseline, err := os.ReadFile(*gate)
			if err != nil {
				log.Fatal(err)
			}
			if err := amosim.CompareBench(*bench, baseline, doc); err != nil {
				log.Fatalf("drift against %s: %v", *gate, err)
			}
		}
		return
	}

	treeMech, err := amosim.ParseMechanism(*mech)
	if err != nil {
		log.Fatal(err)
	}
	bend, err := amosim.ParseBackend(*backend)
	if err != nil {
		log.Fatal(err)
	}

	kernel := amosim.RunConfig{Engine: *engine, Shards: *shards}
	params := amosim.ExperimentParams{
		Barrier:  amosim.BarrierOptions{Episodes: *episodes, Warmup: *warmup, RunConfig: kernel},
		Lock:     amosim.LockOptions{Acquires: *acquires, RunConfig: kernel},
		TreeMech: treeMech,
		Backend:  bend,
		Traffic:  amosim.TrafficOptions{Process: *tProcess, Requests: *tReqs},
	}
	if *tRates != "" {
		for _, f := range strings.Split(*tRates, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(f))
			if err != nil || n <= 0 {
				log.Fatalf("bad -traffic-rates entry %q", f)
			}
			params.TrafficRates = append(params.TrafficRates, n)
		}
	}
	if *procs != "" {
		for _, f := range strings.Split(*procs, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(f))
			if err != nil || n <= 0 {
				log.Fatalf("bad -procs entry %q", f)
			}
			params.Procs = append(params.Procs, n)
		}
	}

	run := func(e amosim.ExperimentInfo) {
		t, err := e.Run(params)
		if err != nil {
			log.Fatalf("%s: %v", e.Name, err)
		}
		fmt.Println(t.Render())
	}

	if *only == "all" {
		for _, e := range amosim.Experiments() {
			fmt.Printf("== %s ==\n", e.Name)
			run(e)
		}
		return
	}
	e, ok := amosim.ExperimentByName(*only)
	if !ok {
		log.Printf("unknown experiment %q (see -list)", *only)
		flag.Usage()
		os.Exit(2)
	}
	run(e)
}
