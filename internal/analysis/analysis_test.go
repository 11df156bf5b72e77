package analysis_test

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"amosim/internal/analysis"
)

// want is one expectation comment: the diagnostic message at file:line must
// match re.
type want struct {
	file string
	line int
	re   *regexp.Regexp
	used bool
}

// wantRE extracts the expectation list from a fixture source line. Each
// expectation is a double- or back-quoted regular expression after
// `// want`.
var (
	wantRE  = regexp.MustCompile(`//\s*want\s+(.*)$`)
	quoteRE = regexp.MustCompile("`[^`]*`|\"[^\"]*\"")
)

// collectWants scans every .go file under root for want comments.
func collectWants(t *testing.T, root string) []*want {
	t.Helper()
	var wants []*want
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") {
			return err
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for i, line := range strings.Split(string(data), "\n") {
			m := wantRE.FindStringSubmatch(line)
			if m == nil {
				continue
			}
			quoted := quoteRE.FindAllString(m[1], -1)
			if len(quoted) == 0 {
				return fmt.Errorf("%s:%d: want comment with no quoted pattern", path, i+1)
			}
			for _, q := range quoted {
				re, err := regexp.Compile(q[1 : len(q)-1])
				if err != nil {
					return fmt.Errorf("%s:%d: bad want pattern %s: %v", path, i+1, q, err)
				}
				wants = append(wants, &want{file: path, line: i + 1, re: re})
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return wants
}

// TestFixtures checks every rule against the fixmod fixture module: each
// diagnostic must be announced by a want comment on its line, and every
// want comment must be hit.
func TestFixtures(t *testing.T) {
	root, err := filepath.Abs("testdata/src/fixmod")
	if err != nil {
		t.Fatal(err)
	}
	mod, err := analysis.Load(root)
	if err != nil {
		t.Fatalf("loading fixture module: %v", err)
	}
	diags := analysis.Run(mod, analysis.AllRules())
	wants := collectWants(t, root)
	if len(wants) == 0 {
		t.Fatal("no want comments found in fixtures")
	}

	for _, d := range diags {
		matched := false
		for _, w := range wants {
			if w.used || w.file != d.Pos.Filename || w.line != d.Pos.Line {
				continue
			}
			if w.re.MatchString(d.Msg) {
				w.used = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for _, w := range wants {
		if !w.used {
			t.Errorf("%s:%d: expected diagnostic matching %q, got none", w.file, w.line, w.re)
		}
	}
}

// TestSelfCheck asserts the repository itself is lint-clean: the rules the
// simulator's determinism depends on hold for every package in the module.
func TestSelfCheck(t *testing.T) {
	root, err := analysis.FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	mod, err := analysis.Load(root)
	if err != nil {
		t.Fatalf("loading module: %v", err)
	}
	if len(mod.Packages) < 10 {
		t.Fatalf("loaded only %d packages; loader is missing directories", len(mod.Packages))
	}
	for _, d := range analysis.Run(mod, analysis.AllRules()) {
		t.Errorf("repository not lint-clean: %s", d)
	}
}

// TestNoExternalDependencies pins the stdlib-only constraint: the analyzer
// (and the module as a whole) must not grow require directives.
func TestNoExternalDependencies(t *testing.T) {
	root, err := analysis.FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		if strings.HasPrefix(strings.TrimSpace(line), "require") {
			t.Fatalf("go.mod gained a dependency: %q (amolint must stay stdlib-only)", line)
		}
	}
}

// ruleSet is the exact, ordered rule suite.
const ruleSet = "determinism,exhaustive,latency,barecounter,sweepshare,lifecycle,escapes"

// TestSelectRules exercises the rule-subset flag parsing.
func TestSelectRules(t *testing.T) {
	all, err := analysis.SelectRules("")
	if err != nil || analysis.RuleNames(all) != ruleSet {
		t.Fatalf("SelectRules(\"\") = %s, err %v; want %s, nil", analysis.RuleNames(all), err, ruleSet)
	}
	sub, err := analysis.SelectRules("determinism, latency")
	if err != nil || analysis.RuleNames(sub) != "determinism,latency" {
		t.Fatalf("SelectRules subset = %s, err %v; want determinism,latency, nil", analysis.RuleNames(sub), err)
	}
	if _, err := analysis.SelectRules("nosuchrule"); err == nil {
		t.Fatal("SelectRules accepted an unknown rule name")
	}
}
