package amosim

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// TestCompareBench drives the drift policy against every checked-in
// BENCH_<name>.json: deterministic leaves must match exactly, untagged
// Host fields are skipped, `gate:"max"` fields may rise at most 20% and
// improve without bound, and a baseline field the document type lacks
// fails the decode.
func TestCompareBench(t *testing.T) {
	cases := map[string]struct {
		det   []string // deterministic leaves, nested wherever the document has rows
		host  string   // an untagged Host field ("" when the document has none)
		gated []string // the document's `gate:"max"` fields
	}{
		"metrics":   {det: []string{"Rows[7].Attribution.SpinIdle", "Rows[0].Mechanism"}},
		"hotpath":   {det: []string{"EventsPerRun"}, host: "HostSimAllocs", gated: []string{"HostNsPerOp", "HostAllocsPerOp", "HostBytesPerOp"}},
		"pdes":      {det: []string{"ShardEvents[0]"}, host: "HostSpeedup"},
		"crossover": {det: []string{"Rows[4].LockComb", "BarrierCrossover[dsm]"}, host: "HostSeconds"},
		"traffic":   {det: []string{"Rows[17].P99", "Rows[3].Saturated"}, host: "HostSeconds"},
	}
	if got := BenchNames(); len(got) != len(cases) {
		t.Fatalf("BenchNames() = %v, want one case per document", got)
	}
	for _, name := range BenchNames() {
		tc, ok := cases[name]
		if !ok {
			t.Fatalf("no test case for bench document %q", name)
		}
		t.Run(name, func(t *testing.T) {
			base, err := os.ReadFile("BENCH_" + name + ".json")
			if err != nil {
				t.Fatal(err)
			}
			pass := func(what string, current []byte) {
				t.Helper()
				if err := CompareBench(name, base, current); err != nil {
					t.Errorf("%s: want pass, got %v", what, err)
				}
			}
			fail := func(what, path string, baseline, current []byte) {
				t.Helper()
				err := CompareBench(name, baseline, current)
				if want := name + ": " + path; err == nil || !strings.HasPrefix(err.Error(), want) {
					t.Errorf("%s: want an error starting %q, got %v", what, want, err)
				}
			}

			pass("unmodified copy", base)
			for _, leaf := range tc.det {
				fail("perturbed "+leaf, leaf+": baseline ", base, jsonEdit(t, base, leaf, bump))
			}
			if tc.host != "" {
				pass("untagged "+tc.host+" x10", jsonEdit(t, base, tc.host, scale(10)))
			}
			if got := gatedFields(name); !slices.Equal(got, tc.gated) {
				t.Errorf("gated fields %v, want %v", got, tc.gated)
			}
			for _, f := range tc.gated {
				pass(f+" +15%", jsonEdit(t, base, f, scale(1.15)))
				fail(f+" +25%", f+": baseline ", base, jsonEdit(t, base, f, scale(1.25)))
				pass(f+" improved 100x", jsonEdit(t, base, f, scale(0.01)))
			}
			stale := jsonEdit(t, base, "", func(v any) any {
				v.(map[string]any)["Retired"] = json.Number("1")
				return v
			})
			fail("baseline with a retired field", "bad baseline", stale, base)
		})
	}
}

func TestBenchUnknownName(t *testing.T) {
	if _, err := Bench("nope"); err == nil || !strings.Contains(err.Error(), "have metrics, hotpath") {
		t.Errorf("Bench(unknown) = %v, want an error listing the names", err)
	}
	if err := CompareBench("nope", nil, nil); err == nil {
		t.Error("CompareBench(unknown) passed")
	}
}

// gatedFields lists the named document's `gate:"max"` fields.
func gatedFields(name string) []string {
	d, err := benchByName(name)
	if err != nil {
		panic(err)
	}
	var out []string
	for _, f := range reflect.VisibleFields(d.typ) {
		if f.Tag.Get("gate") == "max" {
			out = append(out, f.Name)
		}
	}
	return out
}

// jsonEdit decodes a document, replaces the leaf at path (comparator
// syntax: "Rows[17].P99", "BarrierCrossover[dsm]"; "" is the root) with
// f of its old value, and re-encodes it.
func jsonEdit(t *testing.T, doc []byte, path string, f func(any) any) []byte {
	t.Helper()
	dec := json.NewDecoder(bytes.NewReader(doc))
	dec.UseNumber()
	var root any
	if err := dec.Decode(&root); err != nil {
		t.Fatal(err)
	}
	steps := regexp.MustCompile(`\w+|\[[^\]]+\]`).FindAllString(path, -1)
	out, err := json.Marshal(jsonSet(root, steps, f))
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func jsonSet(v any, steps []string, f func(any) any) any {
	if len(steps) == 0 {
		return f(v)
	}
	key := strings.Trim(steps[0], "[]")
	switch c := v.(type) {
	case map[string]any:
		if _, ok := c[key]; !ok {
			panic(fmt.Sprintf("no field %q", key))
		}
		c[key] = jsonSet(c[key], steps[1:], f)
	case []any:
		i, err := strconv.Atoi(key)
		if err != nil {
			panic(err)
		}
		c[i] = jsonSet(c[i], steps[1:], f)
	default:
		panic(fmt.Sprintf("cannot step %q into %T", key, v))
	}
	return v
}

// bump changes a JSON leaf: numbers by +1, strings by a suffix, bools
// flipped.
func bump(v any) any {
	switch x := v.(type) {
	case json.Number:
		f, _ := x.Float64()
		return json.Number(strconv.FormatFloat(f+1, 'f', -1, 64))
	case string:
		return x + "x"
	case bool:
		return !x
	}
	panic(fmt.Sprintf("cannot bump %T", v))
}

func scale(k float64) func(any) any {
	return func(v any) any {
		f, _ := v.(json.Number).Float64()
		return json.Number(strconv.FormatFloat(f*k, 'f', -1, 64))
	}
}
