package bench

import (
	"fmt"
	"os"
	"os/exec"
	"strings"
	"time"
)

// layerNames are the layers a traced run reports host time for, whether or not
// the workload reached them: the simulator's packages, its event kernel
// split in two, the harness above them, and the Go runtime's share.
//
//   - sim_switch: process park/wake in internal/sim plus the Go scheduler
//     stacks under them;
//   - sim_heap: the rest of internal/sim, the event queues and the
//     parallel kernel's window loop;
//   - tables: the root amosim package (experiment runners and tables);
//   - bench: this package, mostly checking outputs;
//   - gc: the garbage collector's background mark and sweep workers;
//   - other: runtime work with no amosim frame that is neither of those.
var layerNames = []string{
	"sim_switch", "sim_heap", "machine", "topology", "cache", "network",
	"directory", "memsys", "core", "proc", "syncprim", "syncron", "dsm",
	"sweep", "workload", "traffic", "stats", "metrics", "chaos", "tables",
	"bench", "gc", "other",
}

// sample is one distinct stack of a CPU profile with its sampled time.
type sample struct {
	d     time.Duration
	stack []string // function names, leaf first
}

// profileLayers reads a CPU profile through `go tool pprof -traces` and
// returns the sampled CPU time of each layer. tmpDir is pprof's scratch
// directory.
func profileLayers(profPath, tmpDir string) (map[string]time.Duration, error) {
	cmd := exec.Command("go", "tool", "pprof", "-traces", profPath)
	cmd.Env = append(os.Environ(), "PPROF_TMPDIR="+tmpDir)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("bench: go tool pprof -traces: %w", err)
	}
	samples, err := parseTraces(string(out))
	if err != nil {
		return nil, err
	}
	layers := map[string]time.Duration{}
	for _, s := range samples {
		layers[layerOf(s.stack)] += s.d
	}
	return layers, nil
}

// parseTraces parses the text of `go tool pprof -traces`: a header, then
// one block per distinct stack, each opened by a separator line. A block
// holds label lines ("%10s:  %s") and then stack lines ("%10s   %s"), the
// first carrying the sampled time and the leaf function.
func parseTraces(text string) ([]sample, error) {
	blocks := strings.Split(text, "\n-----------+")
	var out []sample
	for _, b := range blocks[1:] {
		var s sample
		for _, line := range strings.Split(b, "\n")[1:] {
			if len(line) <= 13 || line[10:13] != "   " {
				continue // a label line, or the trailing separator
			}
			if v := strings.TrimSpace(line[:10]); v != "" {
				d, err := time.ParseDuration(v)
				if err != nil {
					return nil, fmt.Errorf("bench: pprof trace value %q: %w", v, err)
				}
				s.d = d
			}
			s.stack = append(s.stack, strings.TrimSuffix(line[13:], " (inline)"))
		}
		if len(s.stack) > 0 {
			out = append(out, s)
		}
	}
	return out, nil
}

// layerOf attributes a stack, leaf first, to a layer: the package of the
// first amosim frame going up from the leaf, with internal/sim split into
// process switches and the rest. A stack with no amosim frame is the
// garbage collector's if a background mark or sweep worker runs it, a
// process switch if it is a scheduler stack (rooted in runtime.mcall or
// runtime.mstart, where goroutines park and wake), and other otherwise.
func layerOf(stack []string) string {
	for _, fn := range stack {
		if l, ok := amosimLayer(fn); ok {
			return l
		}
	}
	for _, fn := range stack {
		switch fn {
		case "runtime.gcBgMarkWorker", "runtime.bgsweep", "runtime.bgscavenge":
			return "gc"
		}
	}
	if n := len(stack); n > 0 && (stack[n-1] == "runtime.mcall" || stack[n-1] == "runtime.mstart") {
		return "sim_switch"
	}
	return "other"
}

// amosimLayer maps one function name to its layer, if it is amosim code.
func amosimLayer(fn string) (string, bool) {
	const internal, sim = "amosim/internal/", "amosim/internal/sim."
	switch {
	case strings.HasPrefix(fn, sim):
		rest := fn[len(sim):]
		if strings.HasPrefix(rest, "(*Process)") || strings.HasPrefix(rest, "(*Cond)") || strings.HasPrefix(rest, "spawn") {
			return "sim_switch", true
		}
		return "sim_heap", true
	case strings.HasPrefix(fn, internal):
		pkg := fn[len(internal):]
		if i := strings.IndexByte(pkg, '.'); i >= 0 {
			pkg = pkg[:i]
		}
		return pkg, true
	case strings.HasPrefix(fn, "amosim/bench"):
		return "bench", true
	case strings.HasPrefix(fn, "amosim."):
		return "tables", true
	}
	return "", false
}
