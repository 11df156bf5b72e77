package amosim

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"slices"
	"strings"
)

// The checked-in BENCH_<name>.json documents are drift gates, one per
// registered name: `amotables -bench NAME` writes a fresh document and
// `-gate FILE` runs CompareBench against the checked-in baseline. Every
// document follows one drift policy, encoded only in CompareBench.
// End-to-end and per-layer host timing live in the bench module.

// benchTolerance is how far a `gate:"max"` field may rise above its
// baseline before CompareBench fails it. Improvements of any size pass.
const benchTolerance = 0.20

// benchDoc is one registered document: its name, the Go type baselines
// decode into, and the generator that measures a fresh one.
type benchDoc struct {
	name string
	typ  reflect.Type
	gen  func() (any, error)
}

func benchEntry[D any](name string, gen func() (D, error)) benchDoc {
	return benchDoc{name, reflect.TypeFor[D](), func() (any, error) {
		d, err := gen()
		return d, err
	}}
}

var benchDocs = []benchDoc{
	benchEntry("metrics", benchMetrics),
	benchEntry("hotpath", benchHotpath),
	benchEntry("pdes", benchPdes),
	benchEntry("crossover", benchCrossover),
	benchEntry("traffic", benchTraffic),
}

// BenchNames lists the registered bench documents in registry order.
func BenchNames() []string {
	names := make([]string, len(benchDocs))
	for i, d := range benchDocs {
		names[i] = d.name
	}
	return names
}

func benchByName(name string) (benchDoc, error) {
	for _, d := range benchDocs {
		if d.name == name {
			return d, nil
		}
	}
	return benchDoc{}, fmt.Errorf("amosim: unknown bench document %q (have %s)", name, strings.Join(BenchNames(), ", "))
}

// Bench runs the named document's workload and returns the indented JSON
// the repo checks in as BENCH_<name>.json.
func Bench(name string) ([]byte, error) {
	d, err := benchByName(name)
	if err != nil {
		return nil, err
	}
	doc, err := d.gen()
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	out, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(out, '\n'), nil
}

// CompareBench gates current against baseline, both documents of the
// named kind. Plain fields are deterministic and must match exactly.
// Fields whose names start with Host read the host clock or allocator and
// are skipped, unless tagged `gate:"max"`: those fail when more than
// benchTolerance above the baseline. The error names the first failing
// field's path (e.g. "traffic: Rows[0].P99: baseline 2453, now 2454"). A
// baseline field the document type no longer has is an error too, so a
// stale baseline cannot pass silently.
func CompareBench(name string, baseline, current []byte) error {
	d, err := benchByName(name)
	if err != nil {
		return err
	}
	base, err := benchDecode(d.typ, baseline)
	if err != nil {
		return fmt.Errorf("%s: bad baseline: %w", name, err)
	}
	cur, err := benchDecode(d.typ, current)
	if err != nil {
		return fmt.Errorf("%s: bad current document: %w", name, err)
	}
	if err := benchDiff("", base, cur); err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	return nil
}

func benchDecode(typ reflect.Type, data []byte) (reflect.Value, error) {
	v := reflect.New(typ)
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	return v.Elem(), dec.Decode(v.Interface())
}

// benchDiff walks two values of one document type and reports the first
// difference the drift policy rejects.
func benchDiff(path string, base, cur reflect.Value) error {
	switch base.Kind() {
	case reflect.Struct:
		t := base.Type()
		for i := 0; i < t.NumField(); i++ {
			f := t.Field(i)
			p := path
			if !f.Anonymous {
				p = benchPath(path, f.Name)
			}
			if !strings.HasPrefix(f.Name, "Host") {
				if err := benchDiff(p, base.Field(i), cur.Field(i)); err != nil {
					return err
				}
				continue
			}
			if f.Tag.Get("gate") != "max" {
				continue
			}
			b, c := base.Field(i).Float(), cur.Field(i).Float()
			if b > 0 && c > b*(1+benchTolerance) {
				return fmt.Errorf("%s: baseline %v, now %v (+%.0f%%, limit +%.0f%%)",
					p, b, c, (c/b-1)*100, benchTolerance*100)
			}
		}
	case reflect.Slice:
		if base.Len() != cur.Len() {
			return fmt.Errorf("%s: baseline %d entries, now %d", path, base.Len(), cur.Len())
		}
		for i := 0; i < base.Len(); i++ {
			if err := benchDiff(fmt.Sprintf("%s[%d]", path, i), base.Index(i), cur.Index(i)); err != nil {
				return err
			}
		}
	case reflect.Map:
		bk, ck := benchKeys(base), benchKeys(cur)
		if !slices.Equal(bk, ck) {
			return fmt.Errorf("%s: baseline keys %v, now %v", path, bk, ck)
		}
		for _, k := range bk {
			kv := reflect.ValueOf(k)
			if err := benchDiff(fmt.Sprintf("%s[%s]", path, k), base.MapIndex(kv), cur.MapIndex(kv)); err != nil {
				return err
			}
		}
	default:
		if !base.Equal(cur) {
			return fmt.Errorf("%s: baseline %v, now %v", path, base, cur)
		}
	}
	return nil
}

func benchPath(path, field string) string {
	if path == "" {
		return field
	}
	return path + "." + field
}

// benchKeys returns a string-keyed map's keys in sorted order.
func benchKeys(m reflect.Value) []string {
	keys := make([]string, 0, m.Len())
	for _, k := range m.MapKeys() {
		keys = append(keys, k.String())
	}
	slices.Sort(keys)
	return keys
}
