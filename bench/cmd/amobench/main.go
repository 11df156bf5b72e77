// Command amobench runs one workload of the simulator's benchmark and
// prints every metric it measured, one "name value unit" line each, then
// the run's summary as one JSON line: correct, attempted, failed, and the
// metrics BENCHMARK.json declares (end to end, or per layer with -trace 1).
//
// Usage, from the repository root (bench/run.sh builds and runs it):
//
//	amobench -workload paper-tables|pdes-1024|traffic-16 [-seed N] [-seconds S] [-trace 0|1]
//
// A traced run writes its CPU profile, spans.json and metrics.json under
// .bench_build/trace/<workload>. The exit status is 1 when any output was
// wrong, 2 on a usage or set-up error.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"

	"amosim/bench"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("amobench: ")
	var (
		workload = flag.String("workload", "", "workload to run: "+strings.Join(bench.Workloads, ", "))
		seed     = flag.Uint64("seed", 1, "seed of the workload's random inputs")
		seconds  = flag.Float64("seconds", 20, "measuring time; whole rounds run until it has passed")
		trace    = flag.Int("trace", 0, "1 for a traced run reporting per-layer metrics")
	)
	flag.Parse()
	if flag.NArg() > 0 || *workload == "" || (*trace != 0 && *trace != 1) {
		flag.Usage()
		os.Exit(2)
	}
	// One process with no more running threads than the host has cores.
	runtime.GOMAXPROCS(min(2, runtime.NumCPU()))

	o := bench.Options{Workload: *workload, Seed: *seed, Seconds: *seconds}
	if *trace == 1 {
		o.TraceDir = filepath.Join(".bench_build", "trace", *workload)
	}
	rep, err := bench.Run(o)
	if err != nil {
		log.Print(err)
		os.Exit(2)
	}
	names := make([]string, 0, len(rep.Extra)+len(rep.Metrics))
	all := map[string]bench.Metric{}
	for _, m := range []map[string]bench.Metric{rep.Extra, rep.Metrics} {
		for k, v := range m {
			names = append(names, k)
			all[k] = v
		}
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("%-28s %14.6g %s\n", n, all[n].Value, all[n].Unit)
	}
	line, err := json.Marshal(rep.Result)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(string(line))
	if !rep.Correct {
		os.Exit(1)
	}
}
