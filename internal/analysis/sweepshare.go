package analysis

import (
	"strconv"
	"strings"
)

// SweepShareRule keeps the parallel sweep engine machine-blind: the
// internal/sweep package must not import any module package that holds or
// builds machine state (the machine itself, its components, the
// synchronization algorithms, the workloads, or the experiment layer at
// the module root). Workers hand sweep points to goroutines, so a sweep
// engine that could see a *machine.Machine could also share one between
// workers — a data race the race detector only catches on the schedules
// that hit it. Structural blindness makes the shared-machine bug
// unrepresentable: machines exist only inside Point.Run closures built by
// the experiment layer. The engine imports no module package at all.
type SweepShareRule struct{}

// Name implements Rule.
func (SweepShareRule) Name() string { return "sweepshare" }

// Check implements Rule.
func (SweepShareRule) Check(mod *Module, pkg *Package) []Diagnostic {
	if mod.RelPath(pkg) != "internal/sweep" {
		return nil
	}
	var out []Diagnostic
	for _, file := range pkg.Files {
		for _, imp := range file.Imports {
			path, err := strconv.Unquote(imp.Path.Value)
			if err != nil {
				continue
			}
			if path != mod.Path && !strings.HasPrefix(path, mod.Path+"/") {
				continue // stdlib
			}
			out = append(out, Diagnostic{
				Pos:  mod.Fset.Position(imp.Pos()),
				Rule: "sweepshare",
				Msg:  "internal/sweep must stay machine-blind: importing " + path + " lets sweep workers share machine state; build machines inside Point.Run in the experiment layer instead",
			})
		}
	}
	return out
}
