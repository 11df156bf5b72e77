package analysis

import (
	"fmt"
	"go/token"
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
// a new allocation site fails the gate naming the exact file, line and
// compiler message, and a site that disappeared flags the baseline entry as
// stale so the file stays an exact inventory.
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

// escapePackages is the default gated set: the allocation-free hot path.
var escapePackages = []string{
	"internal/sim",
	"internal/network",
	"internal/directory",
	"internal/core",
	"internal/cache",
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
	msg       string
}

// key is the canonical baseline-entry form of the site.
func (s escSite) key() string {
	return fmt.Sprintf("%s:%d:%d: %s", s.rel, s.line, s.col, s.msg)
}

// escapeLine matches one compiler diagnostic line. -m -m prints most sites
// twice (once with a trailing colon introducing flow lines); the trailing
// colon is stripped so both forms canonicalize identically.
var escapeLine = regexp.MustCompile(`^([^\s:]+\.go):(\d+):(\d+): (.*?):?$`)

// CollectEscapes builds the given module-relative packages of root with
// escape-analysis diagnostics enabled and returns the deduplicated, sorted
// heap sites. The build cache replays compiler diagnostics, so warm runs
// are cheap.
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
	return parseEscapes(string(out)), nil
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
		if k := s.key(); !seen[k] {
			seen[k] = true
			sites = append(sites, s)
		}
	}
	sort.Slice(sites, func(i, j int) bool { return sites[i].key() < sites[j].key() })
	return sites
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
	for _, s := range sites {
		b.WriteString(s.key())
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

// readEscapesBaseline parses a baseline file into entry -> file line number.
func readEscapesBaseline(path string) (map[string]int, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	entries := make(map[string]int)
	for i, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		entries[line] = i + 1
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
	current := make(map[string]bool, len(sites))
	for _, s := range sites {
		current[s.key()] = true
		if _, ok := want[s.key()]; ok {
			continue
		}
		diags = append(diags, Diagnostic{
			Pos:  token.Position{Filename: filepath.Join(mod.Root, filepath.FromSlash(s.rel)), Line: s.line, Column: s.col},
			Rule: "escapes",
			Msg: fmt.Sprintf("new heap site not in %s: %s (audit it, then regenerate with 'go run ./cmd/amolint -write-escapes')",
				EscapesBaselineName, s.msg),
		})
	}
	stale := make([]string, 0)
	for entry := range want { //lint:order-independent (sorted below)
		if !current[entry] {
			stale = append(stale, entry)
		}
	}
	sort.Strings(stale)
	for _, entry := range stale {
		diags = append(diags, Diagnostic{
			Pos:  token.Position{Filename: baseline, Line: want[entry], Column: 1},
			Rule: "escapes",
			Msg: fmt.Sprintf("stale baseline entry: the compiler no longer reports %q (regenerate with 'go run ./cmd/amolint -write-escapes')",
				entry),
		})
	}
	return diags
}
