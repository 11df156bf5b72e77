package bench

import (
	"os"
	"testing"
	"time"
)

// TestLayerAttribution pins the leaf-to-layer rule on a canned
// `go tool pprof -traces` listing: process and Cond switches and the Go
// scheduler's g0 stacks are sim_switch, background mark and sweep are gc,
// other runtime-only stacks are other, and everything else belongs to the
// first amosim frame going up from the leaf.
func TestLayerAttribution(t *testing.T) {
	text, err := os.ReadFile("testdata/pprof-traces.txt")
	if err != nil {
		t.Fatal(err)
	}
	samples, err := parseTraces(string(text))
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) != 14 {
		t.Fatalf("parsed %d stacks, want 14", len(samples))
	}
	if got := samples[0].stack[2]; got != "amosim/internal/sim.(*Process).park" {
		t.Errorf("inline frame parsed as %q", got)
	}
	got := map[string]time.Duration{}
	var total time.Duration
	for _, s := range samples {
		got[layerOf(s.stack)] += s.d
		total += s.d
	}
	want := map[string]time.Duration{
		"sim_switch": 210 * time.Millisecond,
		"sim_heap":   40 * time.Millisecond,
		"directory":  50 * time.Millisecond,
		"topology":   60 * time.Millisecond,
		"gc":         190 * time.Millisecond,
		"other":      30 * time.Millisecond,
		"tables":     200 * time.Millisecond,
		"bench":      1200 * time.Millisecond,
	}
	for l, d := range want {
		if got[l] != d {
			t.Errorf("layer %s: %v, want %v", l, got[l], d)
		}
	}
	if len(got) != len(want) {
		t.Errorf("layers %v, want exactly %v", got, want)
	}
	if total != 1980*time.Millisecond {
		t.Errorf("total %v, want the listing's 1.98s", total)
	}
	for l := range got {
		if !contains(layerNames, l) {
			t.Errorf("layer %s is not in layerNames", l)
		}
	}
}

func contains(list []string, s string) bool {
	for _, v := range list {
		if v == s {
			return true
		}
	}
	return false
}
