package analysis

import (
	"os"
	"path/filepath"
	"reflect"
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
			t.Errorf("site outside the gated package: %+v", s)
		}
		if s.line <= 0 || s.col <= 0 {
			t.Errorf("site with unparsed position: %+v", s)
		}
		if strings.Contains(s.msg, "moved to heap: v") {
			found = true
			if s.decl != "Box" {
				t.Errorf("deliberate escape is named %q, want its enclosing function Box", s.decl)
			}
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
	got := parseEscapes(out)
	want := []escSite{
		{rel: "internal/sim/engine.go", line: 12, col: 2, msg: "moved to heap: v"},
		{rel: "internal/sim/process.go", line: 84, col: 7, msg: "&Process{...} escapes to heap"},
		{rel: "internal/sim/process.go", line: 93, col: 30, msg: "func literal escapes to heap"},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("parseEscapes:\n%+v\nwant:\n%+v", got, want)
	}
}

// TestEscapeEntriesByDeclaration pins the baseline entry format: sites are
// named by their enclosing function (a function literal counts toward it,
// a method is named (Recv).Name, a site outside any function "-"), repeats
// of one message within a function fold into a ×N count, and a comment
// line inserted above every declaration changes no entry.
func TestEscapeEntriesByDeclaration(t *testing.T) {
	const src = `package p

var hook = func() *int { v := 1; return &v }()

type Q[T any] struct{ buf []T }

func (q *Q[T]) Push(v T) {
	f := func() { q.buf = append(q.buf, v) }
	f()
}

func F(a int) { _, _ = []any{a}, []any{a} }
`
	root := t.TempDir()
	write := func(text string) {
		if err := os.WriteFile(filepath.Join(root, "p.go"), []byte(text), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	// Positions of the sites in src: the var initializer's literal, a
	// statement inside Push's function literal, and F's two uses of a.
	sites := func(shift int) []escSite {
		return []escSite{
			{rel: "p.go", line: 3 + shift, col: 12, msg: "func literal escapes to heap"},
			{rel: "p.go", line: 8 + shift, col: 16, msg: "moved to heap: v"},
			{rel: "p.go", line: 12 + shift, col: 30, msg: "a escapes to heap"},
			{rel: "p.go", line: 12 + shift, col: 40, msg: "a escapes to heap"},
		}
	}
	write(src)
	before := sites(0)
	if err := nameDecls(root, before); err != nil {
		t.Fatal(err)
	}
	want := "p.go: (*Q[T]).Push: moved to heap: v\n" +
		"p.go: -: func literal escapes to heap\n" +
		"p.go: F: a escapes to heap ×2\n"
	if got := FormatEscapesBaseline(before); !strings.HasSuffix(got, "\n"+want) {
		t.Fatalf("baseline entries:\n%s\nwant them to end with:\n%s", got, want)
	}
	write("// shifted\n" + src)
	after := sites(1)
	if err := nameDecls(root, after); err != nil {
		t.Fatal(err)
	}
	if FormatEscapesBaseline(after) != FormatEscapesBaseline(before) {
		t.Fatalf("a one-line shift changed the baseline:\n%s\nvs\n%s", FormatEscapesBaseline(after), FormatEscapesBaseline(before))
	}
}

// TestEscapeRuleGate exercises the baseline diff: clean against a matching
// baseline, a named new-site finding against an empty one, a stale-entry
// finding for a vanished site and for an overstated count, and silence
// when no baseline exists.
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

	for _, stale := range []string{
		FormatEscapesBaseline(sites) + "internal/sim/alloc.go: Box: bogus escapes to heap\n",
		strings.Replace(FormatEscapesBaseline(sites), "moved to heap: v\n", "moved to heap: v ×2\n", 1),
	} {
		if err := os.WriteFile(baseline, []byte(stale), 0o644); err != nil {
			t.Fatal(err)
		}
		diags = rule.Check(mod, pkg)
		if len(diags) != 1 || !strings.Contains(diags[0].Msg, "stale baseline entry") {
			t.Fatalf("stale entry not flagged: %v", diags)
		}
		if diags[0].Pos.Filename != baseline {
			t.Errorf("stale finding should point into the baseline file, got %s", diags[0].Pos.Filename)
		}
	}

	rule.Baseline = filepath.Join(t.TempDir(), "absent")
	if diags := rule.Check(mod, pkg); diags != nil {
		t.Fatalf("gate ran without a baseline file: %v", diags)
	}
}
