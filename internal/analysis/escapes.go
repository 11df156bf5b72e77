package analysis

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
)

// EscapeRule is the static zero-alloc gate. PR 5's allocation-free hot path
// is pinned at runtime by testing.AllocsPerRun tests, but those only cover
// the paths the tests drive; the compiler's escape analysis sees every
// path. This rule runs `go build -gcflags='-m -m'` over the hot-path
// packages, collects the per-site heap diagnostics ("escapes to heap",
// "moved to heap"), and diffs them against the checked-in ESCAPES.baseline:
// a new allocation site fails the gate naming its file, line and compiler
// message, and a site that disappeared flags the baseline entry as stale
// so the file stays an exact inventory. An entry names the file, the
// function enclosing the site and the message, with a ×N count when the
// message repeats within one function, but no line or column, so code that
// only moves changes no entry.
//
// The gate is active only when the baseline file exists at the module root
// (so fixture modules without one are unaffected). Regenerate the baseline
// after auditing an intentional change with:
//
//	go run ./cmd/amolint -write-escapes
//
// The zero value gates the default hot-path packages against
// <module root>/ESCAPES.baseline; tests may override both fields.
type EscapeRule struct {
	// Baseline is the baseline file path; empty means
	// <module root>/ESCAPES.baseline.
	Baseline string
	// Packages lists the module-relative package dirs to gate; nil means
	// the default hot-path set.
	Packages []string
}

// Name implements Rule.
func (EscapeRule) Name() string { return "escapes" }

// escapePackages is the default gated set: the allocation-free hot path,
// from the event kernel through the CPU model to home memory and the dsm
// agent.
var escapePackages = []string{
	"internal/sim",
	"internal/network",
	"internal/directory",
	"internal/core",
	"internal/cache",
	"internal/proc",
	"internal/memsys",
	"internal/dsm",
}

// EscapesBaselineName is the baseline file checked at the module root.
const EscapesBaselineName = "ESCAPES.baseline"

// EscapeGatePackages returns the module-relative dirs the gate covers in
// mod: the subset of the default hot-path packages that exist there.
func EscapeGatePackages(mod *Module) []string {
	var present []string
	for _, rel := range escapePackages {
		if mod.Lookup(mod.Path+"/"+rel) != nil {
			present = append(present, rel)
		}
	}
	return present
}

// escSite is one compiler-reported heap site.
type escSite struct {
	rel       string // file path relative to the module root
	line, col int
	decl      string // enclosing function or method (see nameDecls)
	msg       string
}

// entry is the site's baseline entry, without its count.
func (s escSite) entry() string { return s.rel + ": " + s.decl + ": " + s.msg }

// escapeLine matches one compiler diagnostic line. -m -m prints most sites
// twice (once with a trailing colon introducing flow lines); the trailing
// colon is stripped so both forms canonicalize identically.
var escapeLine = regexp.MustCompile(`^([^\s:]+\.go):(\d+):(\d+): (.*?):?$`)

// CollectEscapes builds the given module-relative packages of root with
// escape-analysis diagnostics enabled and returns the deduplicated, sorted
// heap sites, each named by its enclosing declaration. The build cache
// replays compiler diagnostics, so warm runs are cheap.
func CollectEscapes(root string, packages []string) ([]escSite, error) {
	if len(packages) == 0 {
		return nil, nil
	}
	args := []string{"build", "-gcflags=-m -m"}
	for _, p := range packages {
		args = append(args, "./"+filepath.ToSlash(p))
	}
	cmd := exec.Command("go", args...)
	cmd.Dir = root
	out, err := cmd.CombinedOutput()
	if err != nil {
		return nil, fmt.Errorf("go %s: %v\n%s", strings.Join(args, " "), err, out)
	}
	sites := parseEscapes(string(out))
	return sites, nameDecls(root, sites)
}

// nameDecls sets each site's decl to the function or method of its file
// that contains it, as in (*Cache).Insert, or "-" outside any. A function
// literal counts toward the declaration it appears in.
func nameDecls(root string, sites []escSite) error {
	fset := token.NewFileSet()
	files := make(map[string]*ast.File)
	for i := range sites {
		s := &sites[i]
		f := files[s.rel]
		if f == nil {
			var err error
			if f, err = parser.ParseFile(fset, filepath.Join(root, filepath.FromSlash(s.rel)), nil, parser.SkipObjectResolution); err != nil {
				return err
			}
			files[s.rel] = f
		}
		at := fset.File(f.Pos()).LineStart(s.line) + token.Pos(s.col-1)
		s.decl = "-"
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Pos() <= at && at < fd.End() {
				s.decl = fd.Name.Name
				if fd.Recv != nil {
					s.decl = "(" + types.ExprString(fd.Recv.List[0].Type) + ")." + s.decl
				}
			}
		}
	}
	return nil
}

// parseEscapes extracts the heap sites from `go build -gcflags='-m -m'`
// output. It keeps only sites inside the module root: the compiler reports
// code it inlines or instantiates from the standard library (iter.Pull's
// body, say) at absolute GOROOT paths, or at ../ paths when GOROOT sits
// beside the module. Those lines move with the toolchain version and install
// path, and nothing in this module can act on them.
func parseEscapes(out string) []escSite {
	seen := make(map[string]bool)
	var sites []escSite
	for _, line := range strings.Split(out, "\n") {
		if line == "" || strings.HasPrefix(line, "#") ||
			strings.HasPrefix(line, " ") || strings.HasPrefix(line, "\t") {
			continue
		}
		m := escapeLine.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		rel := filepath.ToSlash(m[1])
		if filepath.IsAbs(m[1]) || strings.HasPrefix(rel, "/") || strings.HasPrefix(rel, "../") {
			continue
		}
		msg := m[4]
		if !strings.Contains(msg, "escapes to heap") && !strings.Contains(msg, "moved to heap") {
			continue
		}
		s := escSite{rel: rel, msg: msg}
		fmt.Sscanf(m[2], "%d", &s.line)
		fmt.Sscanf(m[3], "%d", &s.col)
		if k := fmt.Sprintf("%s:%d:%d: %s", s.rel, s.line, s.col, s.msg); !seen[k] {
			seen[k] = true
			sites = append(sites, s)
		}
	}
	sort.Slice(sites, func(i, j int) bool {
		a, b := sites[i], sites[j]
		return a.rel < b.rel || a.rel == b.rel && (a.line < b.line || a.line == b.line && a.col < b.col)
	})
	return sites
}

// groupEscapes groups sites by baseline entry.
func groupEscapes(sites []escSite) map[string][]escSite {
	groups := make(map[string][]escSite)
	for _, s := range sites {
		groups[s.entry()] = append(groups[s.entry()], s)
	}
	return groups
}

// sortedKeys returns m's keys in ascending order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m { //lint:order-independent (sorted below)
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// FormatEscapesBaseline renders sites in the checked-in baseline format.
func FormatEscapesBaseline(sites []escSite) string {
	var b strings.Builder
	b.WriteString("# ESCAPES.baseline — the audited heap-allocation/escape sites of the\n")
	b.WriteString("# hot-path packages, as reported by `go build -gcflags='-m -m'`.\n")
	b.WriteString("# The amolint escapes rule fails when the compiler reports a site not\n")
	b.WriteString("# listed here (a zero-alloc regression) or stops reporting a listed one\n")
	b.WriteString("# (a stale entry). After auditing an intentional change, regenerate\n")
	b.WriteString("# with: go run ./cmd/amolint -write-escapes\n")
	b.WriteString("# Entry: file: enclosing function: compiler message [×count]\n")
	groups := groupEscapes(sites)
	for _, entry := range sortedKeys(groups) {
		b.WriteString(entry)
		if n := len(groups[entry]); n > 1 {
			fmt.Fprintf(&b, " ×%d", n)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// WriteEscapesBaseline regenerates the baseline for mod at path (empty for
// the default location) and returns the path written.
func WriteEscapesBaseline(mod *Module, path string) (string, error) {
	if path == "" {
		path = filepath.Join(mod.Root, EscapesBaselineName)
	}
	sites, err := CollectEscapes(mod.Root, EscapeGatePackages(mod))
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, []byte(FormatEscapesBaseline(sites)), 0o644)
}

// listed is one baseline entry's site count and its line in the file.
type listed struct{ count, line int }

// readEscapesBaseline parses a baseline file into entry -> listed.
func readEscapesBaseline(path string) (map[string]listed, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	entries := make(map[string]listed)
	for i, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		count := 1
		if entry, n, ok := strings.Cut(line, " ×"); ok {
			line, count = entry, 0
			fmt.Sscanf(n, "%d", &count)
		}
		entries[line] = listed{count: count, line: i + 1}
	}
	return entries, nil
}

// Check implements Rule. The gate runs once per module, anchored to the
// first gated package, and is silent when no baseline file exists.
func (r EscapeRule) Check(mod *Module, pkg *Package) []Diagnostic {
	packages := r.Packages
	if packages == nil {
		packages = EscapeGatePackages(mod)
	}
	if len(packages) == 0 || mod.RelPath(pkg) != packages[0] {
		return nil
	}
	baseline := r.Baseline
	if baseline == "" {
		baseline = filepath.Join(mod.Root, EscapesBaselineName)
	}
	if _, err := os.Stat(baseline); err != nil {
		return nil // no baseline: the gate is not enabled for this module
	}
	fail := func(msg string) []Diagnostic {
		return []Diagnostic{{
			Pos:  token.Position{Filename: baseline, Line: 1, Column: 1},
			Rule: "escapes",
			Msg:  msg,
		}}
	}
	sites, err := CollectEscapes(mod.Root, packages)
	if err != nil {
		return fail(fmt.Sprintf("escape analysis failed: %v", err))
	}
	want, err := readEscapesBaseline(baseline)
	if err != nil {
		return fail(fmt.Sprintf("reading baseline: %v", err))
	}
	var diags []Diagnostic
	groups := groupEscapes(sites)
	for _, entry := range sortedKeys(groups) {
		got, n := groups[entry], want[entry].count
		for _, s := range got[min(n, len(got)):] {
			diags = append(diags, Diagnostic{
				Pos:  token.Position{Filename: filepath.Join(mod.Root, filepath.FromSlash(s.rel)), Line: s.line, Column: s.col},
				Rule: "escapes",
				Msg: fmt.Sprintf("new heap site not in %s: %s in %s, reported %d times, listed %d (audit it, then regenerate with 'go run ./cmd/amolint -write-escapes')",
					EscapesBaselineName, s.msg, s.decl, len(got), n),
			})
		}
	}
	for _, entry := range sortedKeys(want) {
		if w, n := want[entry], len(groups[entry]); n < w.count {
			diags = append(diags, Diagnostic{
				Pos:  token.Position{Filename: baseline, Line: w.line, Column: 1},
				Rule: "escapes",
				Msg: fmt.Sprintf("stale baseline entry: the compiler reports %q %d times, listed %d (regenerate with 'go run ./cmd/amolint -write-escapes')",
					entry, n, w.count),
			})
		}
	}
	return diags
}
