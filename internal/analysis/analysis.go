// Package analysis implements amolint, the repository's custom static
// analyzer. It loads and type-checks every package of the module using only
// the standard library (go/parser, go/types and the source importer — no
// golang.org/x/tools dependency, so the analyzer runs offline) and applies
// simulator-specific correctness rules:
//
//   - determinism: host nondeterminism must not reach code that shapes the
//     event stream, so every run replays from (config, seed). One table,
//     determinismScopes, maps each part of the module to its bans: the
//     math/rand import, the global math/rand source, the wall clock, raw map
//     ranges (with or without the //lint:order-independent escape),
//     goroutines outside the event kernel, and unannotated writes to the
//     parallel kernel's coordinator state (see DeterminismRule).
//   - exhaustive: a switch over an enum-like constant type (cache states,
//     directory states, message kinds, AMO opcodes) must either cover every
//     declared constant or have a default case, so adding a new protocol
//     message or opcode surfaces every dispatch site that needs a decision.
//   - latency: the cycle-cost result of timed memory-system accessors must
//     not be silently discarded; dropping it charges zero cycles and skews
//     every downstream table.
//   - barecounter: exported functions in the simulation packages (plus
//     internal/proc and internal/memsys) must not return two or more
//     positional plain-integer results — the legacy counter-tuple shape
//     whose call sites misbind silently when a counter is added. Counter
//     groups are named structs (internal/metrics).
//   - sweepshare: the parallel sweep engine (internal/sweep) must not
//     import machine-state packages — the only allowed internal import is
//     internal/sim (for deadlock classification). Sweep workers run
//     concurrently, so an engine that could see a *machine.Machine could
//     share one between workers; machine-blindness makes that race
//     structurally impossible.
//   - lifecycle: pooled hot-path values (event-arena slots, in-flight
//     message records, the directory's delayed-request records, the AMU's
//     fine-put and uncached-access records) must be released or
//     have their ownership transferred exactly once on every path out of
//     the function that acquired them — the dataflow pass reports
//     use-after-release, double-release, release-after-transfer and leaks
//     (see LifecycleRule).
//   - escapes: the compiler's escape-analysis report for the hot-path
//     packages must match the checked-in ESCAPES.baseline, so a zero-alloc
//     regression fails the build naming the new heap site (see
//     EscapeRule).
//
// Diagnostics carry the rule name and a position; Run returns them in
// deterministic (file, line, column) order.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"sort"
	"strings"
)

// Diagnostic is one rule violation.
type Diagnostic struct {
	Pos  token.Position
	Rule string
	Msg  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s: %s", d.Pos, d.Rule, d.Msg)
}

// Rule is one analysis pass. Check inspects a single package and returns
// its violations; the driver handles ordering and aggregation.
type Rule interface {
	// Name is the short rule identifier used in diagnostics and -rules.
	Name() string
	// Check returns the rule's findings for pkg.
	Check(mod *Module, pkg *Package) []Diagnostic
}

// simPackages lists the module-relative import paths of the packages whose
// event handlers feed the deterministic simulation schedule: the first row
// of determinismScopes, and the core of the barecounter and lifecycle
// scopes. exhaustive and latency apply module-wide.
var simPackages = map[string]bool{
	"internal/sim":       true,
	"internal/directory": true,
	"internal/network":   true,
	"internal/machine":   true,
	"internal/core":      true,
	"internal/cache":     true,
}

// AllRules returns every rule, in a fixed order.
func AllRules() []Rule {
	return []Rule{DeterminismRule{}, ExhaustiveRule{}, LatencyRule{}, BareCounterRule{}, SweepShareRule{}, LifecycleRule{}, EscapeRule{}}
}

// RuleNames returns the names of rules, comma-joined, for usage text.
func RuleNames(rules []Rule) string {
	names := make([]string, len(rules))
	for i, r := range rules {
		names[i] = r.Name()
	}
	return strings.Join(names, ",")
}

// SelectRules filters AllRules down to the comma-separated names in spec.
// An empty spec selects every rule.
func SelectRules(spec string) ([]Rule, error) {
	all := AllRules()
	if spec == "" {
		return all, nil
	}
	byName := make(map[string]Rule, len(all))
	for _, r := range all {
		byName[r.Name()] = r
	}
	var out []Rule
	for _, name := range strings.Split(spec, ",") {
		name = strings.TrimSpace(name)
		r, ok := byName[name]
		if !ok {
			return nil, fmt.Errorf("unknown rule %q (have %s)", name, RuleNames(all))
		}
		out = append(out, r)
	}
	return out, nil
}

// Run applies rules to every package of mod and returns the combined
// diagnostics sorted by position.
func Run(mod *Module, rules []Rule) []Diagnostic {
	var out []Diagnostic
	for _, pkg := range mod.Packages {
		for _, r := range rules {
			out = append(out, r.Check(mod, pkg)...)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i].Pos, out[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Column != b.Column {
			return a.Column < b.Column
		}
		return out[i].Rule < out[j].Rule
	})
	return out
}

// annotationLines returns the line numbers in file carrying a comment that
// starts with prefix (one of the //lint: annotations).
func annotationLines(fset *token.FileSet, file *ast.File, prefix string) map[int]bool {
	lines := make(map[int]bool)
	for _, cg := range file.Comments {
		for _, c := range cg.List {
			if strings.HasPrefix(c.Text, prefix) {
				lines[fset.Position(c.Pos()).Line] = true
			}
		}
	}
	return lines
}

// annotationCovers reports whether an annotation on one of lines applies to
// a statement beginning at stmtLine: same line (trailing comment) or the
// line directly above (leading comment).
func annotationCovers(lines map[int]bool, stmtLine int) bool {
	return lines[stmtLine] || lines[stmtLine-1]
}
