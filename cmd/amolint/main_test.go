package main

import (
	"bytes"
	"encoding/json"
	"path/filepath"
	"strings"
	"testing"
)

// fixmod is the fixture module, reached relative to this package's dir.
const fixmod = "../../internal/analysis/testdata/src/fixmod"

// TestListRules checks the -list-rules flag: one rule name per line, the
// exact ordered rule suite.
func TestListRules(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-list-rules"}, &stdout, &stderr); code != 0 {
		t.Fatalf("-list-rules exit %d, stderr %q", code, stderr.String())
	}
	const want = "determinism,exhaustive,latency,barecounter,sweepshare,lifecycle,escapes"
	if got := strings.Join(strings.Fields(stdout.String()), ","); got != want {
		t.Fatalf("-list-rules printed %s, want %s", got, want)
	}
}

// TestPackageFilter pins package-pattern matching on the fixture module: a
// plain directory pattern matches only the files directly inside it.
func TestPackageFilter(t *testing.T) {
	dir, err := filepath.Abs(fixmod)
	if err != nil {
		t.Fatal(err)
	}
	t.Chdir(dir)

	var stdout, stderr bytes.Buffer
	if code := run([]string{"./internal"}, &stdout, &stderr); code != 0 || stdout.Len() != 0 {
		t.Errorf("./internal (no .go files of its own): exit %d, findings:\n%s", code, stdout.String())
	}
	stdout.Reset()
	if code := run([]string{"./internal/machine"}, &stdout, &stderr); code != 1 {
		t.Fatalf("./internal/machine: exit %d, want 1 (findings exist); stderr %q", code, stderr.String())
	}
	for _, line := range strings.Split(strings.TrimSpace(stdout.String()), "\n") {
		if !strings.HasPrefix(line, "internal/machine/") {
			t.Errorf("./internal/machine reported a finding outside it: %s", line)
		}
	}

	// "./..." below the module root covers that subtree only.
	t.Chdir(filepath.Join(dir, "internal", "machine"))
	stdout.Reset()
	if code := run([]string{"./..."}, &stdout, &stderr); code != 1 {
		t.Fatalf("./... in internal/machine: exit %d, want 1 (findings exist); stderr %q", code, stderr.String())
	}
	for _, line := range strings.Split(strings.TrimSpace(stdout.String()), "\n") {
		if !strings.HasPrefix(line, "banned.go:") {
			t.Errorf("./... in internal/machine reported a finding outside it: %s", line)
		}
	}
}

// TestJSONOutput runs the lifecycle rule over the fixture module with -json
// and checks the output is a deterministic array of complete findings.
func TestJSONOutput(t *testing.T) {
	dir, err := filepath.Abs(fixmod)
	if err != nil {
		t.Fatal(err)
	}
	t.Chdir(dir)

	runOnce := func() ([]jsonDiag, string) {
		var stdout, stderr bytes.Buffer
		code := run([]string{"-json", "-rules", "lifecycle"}, &stdout, &stderr)
		if code != 1 {
			t.Fatalf("exit %d, want 1 (findings exist); stderr %q", code, stderr.String())
		}
		var diags []jsonDiag
		if err := json.Unmarshal(stdout.Bytes(), &diags); err != nil {
			t.Fatalf("output is not valid JSON: %v\n%s", err, stdout.String())
		}
		return diags, stdout.String()
	}

	diags, raw := runOnce()
	if len(diags) == 0 {
		t.Fatal("no lifecycle findings in the fixture module")
	}
	for _, d := range diags {
		if d.File == "" || d.Line <= 0 || d.Col <= 0 || d.Rule != "lifecycle" || d.Msg == "" {
			t.Errorf("incomplete finding: %+v", d)
		}
		if filepath.IsAbs(d.File) {
			t.Errorf("finding path not cwd-relative: %s", d.File)
		}
	}
	for i := 1; i < len(diags); i++ {
		a, b := diags[i-1], diags[i]
		if a.File > b.File || (a.File == b.File && a.Line > b.Line) {
			t.Errorf("findings out of order: %+v before %+v", a, b)
		}
	}
	if _, raw2 := runOnce(); raw != raw2 {
		t.Error("-json output differs between identical runs")
	}
}

// TestUnknownRule pins the load-error exit code.
func TestUnknownRule(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-rules", "nosuchrule"}, &stdout, &stderr); code != 2 {
		t.Fatalf("unknown rule exit %d, want 2", code)
	}
	if !strings.Contains(stderr.String(), "unknown rule") {
		t.Errorf("stderr %q does not name the unknown rule", stderr.String())
	}
}
