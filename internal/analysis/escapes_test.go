package analysis

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// escmodRoot returns the escape-gate fixture module, which contains one
// deliberate heap allocation (sim.Box moves its parameter to the heap).
func escmodRoot(t *testing.T) string {
	t.Helper()
	root, err := filepath.Abs("testdata/src/escmod")
	if err != nil {
		t.Fatal(err)
	}
	return root
}

// TestCollectEscapes drives the compiler and checks the parsed site list:
// the deliberate escape is reported, positioned in alloc.go, and the
// collection is deterministic across runs.
func TestCollectEscapes(t *testing.T) {
	root := escmodRoot(t)
	sites, err := CollectEscapes(root, []string{"internal/sim"})
	if err != nil {
		t.Fatalf("CollectEscapes: %v", err)
	}
	found := false
	for _, s := range sites {
		if s.rel != "internal/sim/alloc.go" {
			t.Errorf("site outside the gated package: %s", s.key())
		}
		if s.line <= 0 || s.col <= 0 {
			t.Errorf("site with unparsed position: %s", s.key())
		}
		if strings.Contains(s.msg, "moved to heap: v") {
			found = true
		}
	}
	if !found {
		t.Fatalf("deliberate escape (moved to heap: v) not reported; got %d sites", len(sites))
	}
	again, err := CollectEscapes(root, []string{"internal/sim"})
	if err != nil {
		t.Fatalf("CollectEscapes (second run): %v", err)
	}
	if FormatEscapesBaseline(sites) != FormatEscapesBaseline(again) {
		t.Error("escape collection is not deterministic across runs")
	}
}

// TestParseEscapesKeepsModuleSites feeds canned -m -m output through the
// parser: in-module heap sites are kept once each (the trailing-colon
// duplicate folds into the plain form), while sites the compiler reports
// at absolute GOROOT paths or ../ paths, flow lines, and non-heap
// diagnostics are dropped.
func TestParseEscapesKeepsModuleSites(t *testing.T) {
	out := `# example.com/m/internal/sim
internal/sim/process.go:84:7: &Process{...} escapes to heap:
internal/sim/process.go:84:7:   flow: {heap} = &{storage for &Process{...}}:
internal/sim/process.go:84:7: &Process{...} escapes to heap
internal/sim/process.go:93:30: func literal escapes to heap
internal/sim/process.go:61:6: can inline (*Process).Name with cost 4
internal/sim/engine.go:12:2: moved to heap: v
/usr/local/go/src/iter/iter.go:264:3: moved to heap: iter.yieldNext
/usr/local/go/src/iter/iter.go:269:15: func literal escapes to heap
../go/src/iter/iter.go:304:9: func literal escapes to heap
`
	got := FormatEscapesBaseline(parseEscapes(out))
	want := FormatEscapesBaseline([]escSite{
		{rel: "internal/sim/engine.go", line: 12, col: 2, msg: "moved to heap: v"},
		{rel: "internal/sim/process.go", line: 84, col: 7, msg: "&Process{...} escapes to heap"},
		{rel: "internal/sim/process.go", line: 93, col: 30, msg: "func literal escapes to heap"},
	})
	if got != want {
		t.Fatalf("parseEscapes:\n%s\nwant:\n%s", got, want)
	}
}

// TestEscapeRuleGate exercises the baseline diff: clean against a matching
// baseline, a named new-site finding against an empty one, a stale-entry
// finding for a vanished site, and silence when no baseline exists.
func TestEscapeRuleGate(t *testing.T) {
	root := escmodRoot(t)
	mod, err := Load(root)
	if err != nil {
		t.Fatalf("loading escmod: %v", err)
	}
	pkg := mod.Lookup("escmod/internal/sim")
	if pkg == nil {
		t.Fatal("escmod/internal/sim not loaded")
	}
	sites, err := CollectEscapes(root, []string{"internal/sim"})
	if err != nil {
		t.Fatal(err)
	}
	baseline := filepath.Join(t.TempDir(), EscapesBaselineName)
	rule := EscapeRule{Baseline: baseline, Packages: []string{"internal/sim"}}

	if err := os.WriteFile(baseline, []byte(FormatEscapesBaseline(sites)), 0o644); err != nil {
		t.Fatal(err)
	}
	if diags := rule.Check(mod, pkg); len(diags) != 0 {
		t.Fatalf("matching baseline produced findings: %v", diags)
	}

	if err := os.WriteFile(baseline, []byte("# empty\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	diags := rule.Check(mod, pkg)
	if len(diags) == 0 {
		t.Fatal("empty baseline produced no findings for the deliberate escape")
	}
	for _, d := range diags {
		if !strings.HasSuffix(d.Pos.Filename, filepath.FromSlash("internal/sim/alloc.go")) {
			t.Errorf("finding does not name the offending file: %s", d)
		}
		if d.Pos.Line <= 0 || !strings.Contains(d.Msg, "new heap site") {
			t.Errorf("finding does not name the offending site: %s", d)
		}
	}

	withStale := FormatEscapesBaseline(sites) + "internal/sim/alloc.go:99:1: bogus escapes to heap\n"
	if err := os.WriteFile(baseline, []byte(withStale), 0o644); err != nil {
		t.Fatal(err)
	}
	diags = rule.Check(mod, pkg)
	if len(diags) != 1 || !strings.Contains(diags[0].Msg, "stale baseline entry") {
		t.Fatalf("stale entry not flagged: %v", diags)
	}
	if diags[0].Pos.Filename != baseline {
		t.Errorf("stale finding should point into the baseline file, got %s", diags[0].Pos.Filename)
	}

	rule.Baseline = filepath.Join(t.TempDir(), "absent")
	if diags := rule.Check(mod, pkg); diags != nil {
		t.Fatalf("gate ran without a baseline file: %v", diags)
	}
}
