// Package trace provides a lightweight bounded event tracer for the
// simulator. Components append typed records (message sends, protocol
// actions, annotations); the tracer keeps the most recent N in a ring
// buffer and can render them for debugging or teaching (e.g. the Figure 1
// message walkthrough example).
package trace

import (
	"fmt"
	"io"
	"strings"
)

// Record is one traced event.
type Record struct {
	Cycle uint64
	// Kind groups records: "msg", "dir", "amu", "cpu", "note".
	Kind string
	// What is the human-readable description.
	What string
}

// Tracer is a bounded in-memory event log; create one with New. A nil
// *Tracer is a disabled tracer. Tracer methods are safe to call from event
// context (they never block or allocate unboundedly).
type Tracer struct {
	cap     int
	records []Record
	start   int // ring start when full
	full    bool
	dropped uint64
}

// New creates a tracer retaining at most capacity records.
func New(capacity int) *Tracer {
	if capacity <= 0 {
		panic(fmt.Sprintf("trace: capacity must be positive, got %d", capacity))
	}
	return &Tracer{cap: capacity}
}

// Add appends a record of the rendered line what. Nil tracers ignore the
// call, so components can trace unconditionally.
func (t *Tracer) Add(cycle uint64, kind, what string) {
	if t == nil {
		return
	}
	r := Record{Cycle: cycle, Kind: kind, What: what}
	if len(t.records) < t.cap {
		t.records = append(t.records, r)
		return
	}
	t.dropped++ // the overwritten record is lost
	t.records[t.start] = r
	t.start = (t.start + 1) % t.cap
	t.full = true
}

// Len reports the number of retained records.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	return len(t.records)
}

// Dropped reports how many records were lost to ring-buffer wraparound.
// Len() + Dropped() therefore equals the total number of Add calls.
func (t *Tracer) Dropped() uint64 {
	if t == nil {
		return 0
	}
	return t.dropped
}

// Records returns the retained records in chronological order.
func (t *Tracer) Records() []Record {
	if t == nil {
		return nil
	}
	if !t.full {
		out := make([]Record, len(t.records))
		copy(out, t.records)
		return out
	}
	out := make([]Record, 0, t.cap)
	out = append(out, t.records[t.start:]...)
	out = append(out, t.records[:t.start]...)
	return out
}

// Dump writes the retained records to w, one per line, aligned on cycle.
func (t *Tracer) Dump(w io.Writer) error {
	for _, r := range t.Records() {
		if _, err := fmt.Fprintf(w, "%10d  %-4s %s\n", r.Cycle, r.Kind, r.What); err != nil {
			return err
		}
	}
	return nil
}

// String renders the trace as text.
func (t *Tracer) String() string {
	var b strings.Builder
	_ = t.Dump(&b)
	return b.String()
}
