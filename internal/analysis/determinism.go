package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"strconv"
	"strings"
)

// DeterminismRule enforces the replay contract: every simulated run — the
// experiment tables, chaos trials, open-loop traffic, either event kernel,
// any backend — must reproduce byte for byte from (config, seed), so host
// nondeterminism may not reach the code that shapes the event stream.
//
// Each row of determinismScopes maps part of the module to the bans it
// takes. A file takes the union of the rows that cover it, one walk checks
// them all, and every finding reads "<hazard> in <where>: <remedy>", with
// <where> taken from the last (most specific) covering row.
type DeterminismRule struct{}

// Name implements Rule.
func (DeterminismRule) Name() string { return "determinism" }

// ban is one host-nondeterminism source, as a bit in a scope's ban set.
type ban uint8

const (
	// banRandImport rejects importing math/rand at all: even an explicitly
	// seeded *rand.Rand couples streams by draw order.
	banRandImport ban = 1 << iota
	// banGlobalRand rejects calls that read the global math/rand source,
	// which is per-process seeded; the deterministic constructors
	// (deterministicRandFuncs) and *rand.Rand methods stay legal.
	banGlobalRand
	// banWallClock rejects time.Now/Since/Until.
	banWallClock
	// banMapRange rejects a raw range over a map, unless the loop line (or
	// the line above) carries OrderIndependentAnnotation.
	banMapRange
	// banStrictMapRange rejects every raw range over a map, annotated or not.
	banStrictMapRange
	// banGoroutine rejects goroutine spawns outside internal/sim, the event
	// kernel that owns all concurrency.
	banGoroutine
	// banParWrite rejects writes through a field named par (a shard's
	// coordinator back-pointer), unless CoordinatorContextAnnotation marks
	// the site as running only between windows.
	banParWrite
)

// banRemedy completes each finding, keyed by the ban it breaks.
var banRemedy = map[ban]string{
	banRandImport:     "a host RNG, even seeded, ties replay to draw order; derive choices from simulated state or a chaos.RNG stream split from the run's seed",
	banGlobalRand:     "use an explicitly seeded *rand.Rand",
	banWallClock:      "simulated cycles are the only clock (sim.Engine.Now); never read host time",
	banMapRange:       "range a sorted key slice, or annotate " + OrderIndependentAnnotation + " if the body is order-independent",
	banStrictMapRange: "the merge path has no order-independent loops; rank a sorted slice instead",
	banGoroutine:      "simulated concurrency must go through the event kernel (sim.Engine.Spawn)",
	banParWrite:       "mid-window this races the coordinator and sibling shards; if the site runs only between windows, annotate " + CoordinatorContextAnnotation,
}

// determinismScope is one row of the determinism table.
type determinismScope struct {
	where string          // the "<where>" of findings in files this row covers
	pkgs  map[string]bool // module-relative paths of the packages covered
	files string          // when set, only files whose base name starts with it
	bans  ban
}

// determinismScopes is the determinism contract, package by package.
var determinismScopes = []determinismScope{
	// The protocol packages whose event handlers build the schedule.
	{"simulation code", simPackages, "", banGlobalRand | banWallClock | banMapRange | banGoroutine},
	// The parallel kernel's window merge orders events by (time, sequence)
	// alone: no random source at all, no annotated escape for map ranges,
	// and no unmarked shard writes to coordinator state.
	{"the parallel kernel", map[string]bool{"internal/sim": true}, "parallel", banRandImport | banStrictMapRange | banParWrite},
	// Fault schedules replay from the trial seed via chaos.RNG; the layer
	// hooks the machine from outside the event handlers.
	{"the chaos layer", map[string]bool{"internal/chaos": true}, "", banRandImport | banWallClock},
	// The syncron and dsm backends' per-node memory-side units.
	{"a backend package", map[string]bool{"internal/syncron": true, "internal/dsm": true}, "", banRandImport | banWallClock | banMapRange},
	// The arrival process and the request workloads it drives replay from
	// (process, seed, rate, n).
	{"an open-loop traffic package", map[string]bool{"internal/traffic": true, "internal/workload": true}, "", banRandImport | banWallClock | banMapRange},
}

// deterministicRandFuncs are package-level math/rand functions that do not
// touch the global source.
var deterministicRandFuncs = map[string]bool{
	"New":        true,
	"NewSource":  true,
	"NewZipf":    true,
	"NewPCG":     true, // math/rand/v2
	"NewChaCha8": true,
}

// wallClockFuncs are the time package's wall-clock reads.
var wallClockFuncs = map[string]bool{"Now": true, "Since": true, "Until": true}

// OrderIndependentAnnotation is the comment that exempts a map range from
// banMapRange on the same or the following line. It asserts that the loop
// body commutes: executing iterations in any order produces identical
// simulator state and no per-iteration side effects (sends, schedules)
// escape in iteration order.
const OrderIndependentAnnotation = "//lint:order-independent"

// CoordinatorContextAnnotation marks a write through a shard's coordinator
// back-pointer as deliberately coordinator-context: the enclosing code runs
// only between windows (setup, phase attachment, boundary merge), never on
// a shard worker mid-window. The annotation must sit on the same line as
// the write or on the line directly above.
const CoordinatorContextAnnotation = "//lint:coordinator-context"

// fileBans returns the union of the bans of every row covering the file
// named base in the package at module-relative path rel, and the <where>
// of the last such row.
func fileBans(rel, base string) (bans ban, where string) {
	for _, s := range determinismScopes {
		if s.pkgs[rel] && strings.HasPrefix(base, s.files) {
			bans |= s.bans
			where = s.where
		}
	}
	return bans, where
}

// Check implements Rule.
func (DeterminismRule) Check(mod *Module, pkg *Package) []Diagnostic {
	rel := mod.RelPath(pkg)
	var out []Diagnostic
	for _, file := range pkg.Files {
		bans, where := fileBans(rel, filepath.Base(mod.Fset.Position(file.Pos()).Filename))
		if bans == 0 {
			continue
		}
		report := func(b ban, pos token.Pos, hazard string) {
			if bans&b != 0 {
				out = append(out, Diagnostic{
					Pos:  mod.Fset.Position(pos),
					Rule: "determinism",
					Msg:  hazard + " in " + where + ": " + banRemedy[b],
				})
			}
		}
		line := func(pos token.Pos) int { return mod.Fset.Position(pos).Line }
		orderFree := annotationLines(mod.Fset, file, OrderIndependentAnnotation)
		coordinator := annotationLines(mod.Fset, file, CoordinatorContextAnnotation)
		checkWrite := func(e ast.Expr) {
			if writesThroughPar(e) && !annotationCovers(coordinator, line(e.Pos())) {
				report(banParWrite, e.Pos(), "write through the coordinator back-pointer (.par)")
			}
		}

		for _, imp := range file.Imports {
			if path, _ := strconv.Unquote(imp.Path.Value); path == "math/rand" || path == "math/rand/v2" {
				report(banRandImport, imp.Pos(), path+" import")
			}
		}
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.GoStmt:
				if rel != "internal/sim" {
					report(banGoroutine, n.Pos(), "goroutine spawn outside internal/sim")
				}
			case *ast.RangeStmt:
				tv, ok := pkg.Info.Types[n.X]
				if !ok {
					return true
				}
				if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
					return true
				}
				hazard := "nondeterministic iteration over " + types.TypeString(tv.Type, types.RelativeTo(pkg.Types))
				if bans&banStrictMapRange != 0 {
					report(banStrictMapRange, n.Pos(), hazard)
				} else if !annotationCovers(orderFree, line(n.Pos())) {
					report(banMapRange, n.Pos(), hazard)
				}
			case *ast.SelectorExpr:
				fn, ok := pkg.Info.Uses[n.Sel].(*types.Func)
				if !ok || fn.Pkg() == nil {
					return true
				}
				if sig, ok := fn.Type().(*types.Signature); !ok || sig.Recv() != nil {
					return true // methods (e.g. (*rand.Rand).Intn) are fine
				}
				switch path := fn.Pkg().Path(); {
				case path == "time" && wallClockFuncs[fn.Name()]:
					report(banWallClock, n.Pos(), "time."+fn.Name())
				case (path == "math/rand" || path == "math/rand/v2") && !deterministicRandFuncs[fn.Name()]:
					report(banGlobalRand, n.Pos(), "global "+path+"."+fn.Name())
				}
			case *ast.AssignStmt:
				for _, lhs := range n.Lhs {
					checkWrite(lhs)
				}
			case *ast.IncDecStmt:
				checkWrite(n.X)
			}
			return true
		})
	}
	return out
}

// writesThroughPar reports whether the written expression reaches its
// target through a field selector named par — a shard writing coordinator
// state.
func writesThroughPar(e ast.Expr) bool {
	for {
		switch x := e.(type) {
		case *ast.SelectorExpr:
			if inner, ok := x.X.(*ast.SelectorExpr); ok && inner.Sel.Name == "par" {
				return true
			}
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		default:
			return false
		}
	}
}
