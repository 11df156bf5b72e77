package trace

import (
	"fmt"
	"strings"
	"testing"
	"testing/quick"
)

func TestNilTracerIsSafe(t *testing.T) {
	var tr *Tracer
	tr.Add(1, "msg", "hello")
	if tr.Len() != 0 || tr.Dropped() != 0 || tr.Records() != nil {
		t.Fatal("nil tracer misbehaved")
	}
}

func TestNewPanicsOnBadCapacity(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(0)
}

func TestAddAndRecords(t *testing.T) {
	tr := New(10)
	tr.Add(5, "msg", "a=1")
	tr.Add(7, "dir", "b")
	rs := tr.Records()
	if len(rs) != 2 {
		t.Fatalf("len = %d, want 2", len(rs))
	}
	if rs[0].Cycle != 5 || rs[0].Kind != "msg" || rs[0].What != "a=1" {
		t.Fatalf("record 0 = %+v", rs[0])
	}
}

func TestRingWrapKeepsNewest(t *testing.T) {
	tr := New(3)
	for i := uint64(0); i < 7; i++ {
		tr.Add(i, "msg", fmt.Sprintf("e%d", i))
	}
	rs := tr.Records()
	if len(rs) != 3 {
		t.Fatalf("len = %d, want 3", len(rs))
	}
	for i, want := range []uint64{4, 5, 6} {
		if rs[i].Cycle != want {
			t.Fatalf("records = %+v", rs)
		}
	}
}

func TestDumpFormat(t *testing.T) {
	tr := New(4)
	tr.Add(100, "msg", "GETS hub0")
	out := tr.String()
	if !strings.Contains(out, "100") || !strings.Contains(out, "GETS hub0") {
		t.Fatalf("dump = %q", out)
	}
}

// TestWraparoundCountsDropped: every record lost to ring wraparound is
// accounted for, so Len() + Dropped() == Add calls.
func TestWraparoundCountsDropped(t *testing.T) {
	tr := New(3)
	for i := uint64(0); i < 7; i++ {
		tr.Add(i, "msg", fmt.Sprintf("e%d", i))
	}
	if got := tr.Dropped(); got != 4 {
		t.Fatalf("Dropped() = %d after 7 adds into cap 3, want 4", got)
	}
	if tr.Len()+int(tr.Dropped()) != 7 {
		t.Fatalf("Len()+Dropped() = %d+%d, want 7", tr.Len(), tr.Dropped())
	}
}

// TestDumpGolden pins the exact Dump rendering — cycle right-aligned to 10,
// kind left-aligned to 4, one record per line — so debugging transcripts
// and chaos trace digests stay stable.
func TestDumpGolden(t *testing.T) {
	tr := New(4)
	tr.Add(7, "msg", "GETS hub0 -> hub1")
	tr.Add(1234, "dir", "E owner 3")
	tr.Add(4294967296, "amu", "amo.inc @0x80")
	want := "         7  msg  GETS hub0 -> hub1\n" +
		"      1234  dir  E owner 3\n" +
		"4294967296  amu  amo.inc @0x80\n"
	if got := tr.String(); got != want {
		t.Fatalf("Dump output changed:\ngot:\n%q\nwant:\n%q", got, want)
	}
}

// Property: the tracer retains exactly min(n, cap) records and they are
// always the n most recent, in order.
func TestRingProperty(t *testing.T) {
	f := func(n uint8, capRaw uint8) bool {
		capacity := int(capRaw%16) + 1
		tr := New(capacity)
		total := int(n % 64)
		for i := 0; i < total; i++ {
			tr.Add(uint64(i), "msg", "e")
		}
		rs := tr.Records()
		want := total
		if want > capacity {
			want = capacity
		}
		if len(rs) != want {
			return false
		}
		for i, r := range rs {
			if r.Cycle != uint64(total-want+i) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
