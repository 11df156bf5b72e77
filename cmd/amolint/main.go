// Command amolint runs the repository's simulator-specific static analysis
// over the whole module: one table-driven determinism rule (host
// nondeterminism banned per package scope), enum-switch exhaustiveness,
// discarded cycle costs, bare counter tuples, sweep-engine machine
// blindness, pooled-value lifecycle tracking, and the zero-alloc escape
// gate. It uses only the standard library (the source importer resolves
// stdlib imports from GOROOT), so it runs offline as part of tier-1 verify.
//
// Usage:
//
//	amolint [-rules determinism,escapes] [-json] [packages]
//	amolint -list-rules
//	amolint -write-escapes
//
// Package arguments are module-relative filters: "./..." at the module root
// (or no argument) lints every package; "./internal/sim" restricts the
// reported findings to files directly in that directory, and
// "internal/sim/..." to files anywhere beneath it (the whole module is
// still loaded and type-checked). -list-rules prints the rule names, one
// per line. -json emits the findings as a deterministic JSON array
// of {file,line,col,rule,msg} objects on stdout. -write-escapes regenerates
// ESCAPES.baseline from the current compiler escape-analysis report instead
// of linting. Exits 1 when findings exist, 2 on load errors.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"

	"amosim/internal/analysis"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// jsonDiag is the -json wire form of one finding.
type jsonDiag struct {
	File string `json:"file"`
	Line int    `json:"line"`
	Col  int    `json:"col"`
	Rule string `json:"rule"`
	Msg  string `json:"msg"`
}

// run is main with its streams and exit code lifted out, so tests can drive
// the command end to end.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("amolint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	rulesFlag := fs.String("rules", "", "comma-separated rule subset (default: all of "+
		analysis.RuleNames(analysis.AllRules())+")")
	listFlag := fs.Bool("list-rules", false, "list available rules and exit")
	jsonFlag := fs.Bool("json", false, "emit findings as a JSON array of {file,line,col,rule,msg}")
	writeEscapesFlag := fs.Bool("write-escapes", false,
		"regenerate "+analysis.EscapesBaselineName+" from the current escape-analysis report and exit")
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: amolint [-rules r1,r2] [-json] [packages]\n\nFlags:\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *listFlag {
		for _, r := range analysis.AllRules() {
			fmt.Fprintln(stdout, r.Name())
		}
		return 0
	}

	rules, err := analysis.SelectRules(*rulesFlag)
	if err != nil {
		fmt.Fprintln(stderr, "amolint:", err)
		return 2
	}

	cwd, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(stderr, "amolint:", err)
		return 2
	}
	root, err := analysis.FindModuleRoot(cwd)
	if err != nil {
		fmt.Fprintln(stderr, "amolint:", err)
		return 2
	}
	mod, err := analysis.Load(root)
	if err != nil {
		fmt.Fprintln(stderr, "amolint:", err)
		return 2
	}

	if *writeEscapesFlag {
		path, err := analysis.WriteEscapesBaseline(mod, "")
		if err != nil {
			fmt.Fprintln(stderr, "amolint:", err)
			return 2
		}
		fmt.Fprintf(stdout, "amolint: wrote %s\n", path)
		return 0
	}

	diags := analysis.Run(mod, rules)
	diags = filterByPatterns(mod, diags, fs.Args(), cwd)

	if *jsonFlag {
		out := make([]jsonDiag, 0, len(diags))
		for _, d := range diags {
			out = append(out, jsonDiag{
				File: relTo(cwd, d.Pos.Filename),
				Line: d.Pos.Line,
				Col:  d.Pos.Column,
				Rule: d.Rule,
				Msg:  d.Msg,
			})
		}
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			fmt.Fprintln(stderr, "amolint:", err)
			return 2
		}
	} else {
		for _, d := range diags {
			pos := d.Pos
			pos.Filename = relTo(cwd, pos.Filename)
			fmt.Fprintf(stdout, "%s: %s: %s\n", pos, d.Rule, d.Msg)
		}
	}
	if len(diags) > 0 {
		fmt.Fprintf(stderr, "amolint: %d finding(s)\n", len(diags))
		return 1
	}
	return 0
}

// relTo shortens path relative to dir when it lies beneath it.
func relTo(dir, path string) string {
	if rel, err := filepath.Rel(dir, path); err == nil && !strings.HasPrefix(rel, "..") {
		return rel
	}
	return path
}

// filterByPatterns keeps diagnostics whose file falls under one of the
// package patterns, resolved relative to cwd: "dir/..." matches files
// anywhere beneath dir, a plain "dir" only files directly inside it. No
// patterns, or a recursive pattern at the module root, keeps everything.
func filterByPatterns(mod *analysis.Module, diags []analysis.Diagnostic, patterns []string, cwd string) []analysis.Diagnostic {
	if len(patterns) == 0 {
		return diags
	}
	var trees, dirs []string
	for _, p := range patterns {
		tree, recursive := strings.CutSuffix(p, "/...")
		if !recursive {
			dirs = append(dirs, filepath.Join(cwd, p))
			continue
		}
		dir := filepath.Join(cwd, tree)
		if dir == mod.Root {
			return diags
		}
		trees = append(trees, dir+string(filepath.Separator))
	}
	var out []analysis.Diagnostic
	for _, d := range diags {
		inTree := func(t string) bool { return strings.HasPrefix(d.Pos.Filename, t) }
		if slices.Contains(dirs, filepath.Dir(d.Pos.Filename)) || slices.ContainsFunc(trees, inTree) {
			out = append(out, d)
		}
	}
	return out
}
