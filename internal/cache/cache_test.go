package cache

import (
	"runtime"
	"slices"
	"testing"
	"testing/quick"
	"unsafe"
)

const bb = 128 // block bytes

func words(v uint64) []uint64 {
	w := make([]uint64, bb/8)
	for i := range w {
		w[i] = v
	}
	return w
}

func TestNewPanics(t *testing.T) {
	for _, f := range []func(){
		func() { New(0, 4, bb) },
		func() { New(3, 4, bb) }, // not power of two
		func() { New(4, 0, bb) },
		func() { New(4, 4, 96) }, // block size not a power of two
		func() { New(MaxLines, 2, bb) },
		func() { New(2*MaxLines, 1, bb) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			f()
		}()
	}
}

func TestInsertLookup(t *testing.T) {
	c := New(4, 2, bb)
	if c.Lookup(0x1000) != nil {
		t.Fatal("lookup in empty cache")
	}
	c.Insert(0x1000, Shared, words(7))
	ln := c.Lookup(0x1040) // same block, different word
	if ln == nil || ln.State != Shared {
		t.Fatalf("line = %+v", ln)
	}
	if v, ok := c.ReadWord(0x1008); !ok || v != 7 {
		t.Fatalf("ReadWord = %d, %v", v, ok)
	}
}

func TestInsertReplacesInPlace(t *testing.T) {
	c := New(4, 2, bb)
	c.Insert(0x1000, Shared, words(1))
	v, dirty := c.Insert(0x1000, Modified, words(2))
	if dirty {
		t.Fatalf("in-place replace produced victim %+v", v)
	}
	if got, _ := c.ReadWord(0x1000); got != 2 {
		t.Fatalf("word = %d, want 2", got)
	}
}

func TestLRUEvictionPrefersInvalidThenOldest(t *testing.T) {
	c := New(1, 2, bb) // one set, two ways
	c.Insert(0x0000, Modified, words(1))
	c.Insert(0x1000, Shared, words(2)) // fills second way, no eviction
	if st := c.Stats(); st.Evictions != 0 {
		t.Fatalf("evictions = %d, want 0", st.Evictions)
	}
	c.Touch(0x0000) // make first block MRU
	v, dirty := c.Insert(0x2000, Shared, words(3))
	if dirty {
		t.Fatalf("shared victim reported dirty: %+v", v)
	}
	if c.Lookup(0x1000) != nil {
		t.Fatal("LRU block 0x1000 survived")
	}
	if c.Lookup(0x0000) == nil {
		t.Fatal("MRU block 0x0000 evicted")
	}
}

func TestDirtyVictimReturned(t *testing.T) {
	c := New(1, 1, bb)
	c.Insert(0x0000, Modified, words(9))
	v, dirty := c.Insert(0x1000, Shared, words(1))
	if !dirty {
		t.Fatal("dirty victim not reported")
	}
	if v.Addr != 0 || v.Words[0] != 9 || v.State != Modified {
		t.Fatalf("victim = %+v", v)
	}
}

func TestInvalidate(t *testing.T) {
	c := New(4, 2, bb)
	c.Insert(0x1000, Modified, words(5))
	st, w := c.Invalidate(0x1008)
	if st != Modified || w[0] != 5 {
		t.Fatalf("Invalidate = %v, %v", st, w)
	}
	if c.Lookup(0x1000) != nil {
		t.Fatal("line survived invalidation")
	}
	st, _ = c.Invalidate(0x1000)
	if st != Invalid {
		t.Fatalf("second Invalidate = %v, want Invalid", st)
	}
}

func TestDowngrade(t *testing.T) {
	c := New(4, 2, bb)
	c.Insert(0x1000, Modified, words(3))
	w, ok := c.Downgrade(0x1000)
	if !ok || w[0] != 3 {
		t.Fatalf("Downgrade = %v, %v", w, ok)
	}
	if c.Lookup(0x1000).State != Shared {
		t.Fatal("state not Shared after downgrade")
	}
	if _, ok := c.Downgrade(0x1000); ok {
		t.Fatal("downgrade of Shared line succeeded")
	}
	if _, ok := c.Downgrade(0x9000); ok {
		t.Fatal("downgrade of absent line succeeded")
	}
}

func TestPatchWord(t *testing.T) {
	c := New(4, 2, bb)
	if c.PatchWord(0x1000, 1) {
		t.Fatal("patch of absent line succeeded")
	}
	c.Insert(0x1000, Shared, words(0))
	if !c.PatchWord(0x1010, 42) {
		t.Fatal("patch failed")
	}
	if v, _ := c.ReadWord(0x1010); v != 42 {
		t.Fatalf("word = %d, want 42", v)
	}
	if v, _ := c.ReadWord(0x1008); v != 0 {
		t.Fatalf("neighbor word changed to %d", v)
	}
}

func TestWriteWordRequiresModified(t *testing.T) {
	c := New(4, 2, bb)
	c.Insert(0x1000, Shared, words(0))
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	c.WriteWord(0x1000, 1)
}

func TestStateString(t *testing.T) {
	if Invalid.String() != "I" || Shared.String() != "S" || Modified.String() != "M" {
		t.Error("state names wrong")
	}
}

// Property: a cache never holds two lines for the same block.
func TestNoDuplicateBlocksProperty(t *testing.T) {
	f := func(ops []uint16) bool {
		c := New(2, 2, bb)
		for _, op := range ops {
			block := uint64(op%8) * bb
			switch (op / 8) % 3 {
			case 0:
				c.Insert(block, Shared, words(uint64(op)))
			case 1:
				c.Insert(block, Modified, words(uint64(op)))
			case 2:
				c.Invalidate(block)
			}
			// Count residences of each block.
			seen := map[uint64]int{}
			for b := uint64(0); b < 8; b++ {
				if c.Lookup(b*bb) != nil {
					seen[b*bb]++
				}
			}
			for _, n := range seen {
				if n > 1 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: capacity is never exceeded and dirty data is never silently
// dropped — every Modified insert either stays resident or is returned as a
// dirty victim on later eviction.
func TestDirtyNeverSilentlyDroppedProperty(t *testing.T) {
	f := func(blocks []uint8) bool {
		c := New(1, 2, bb)
		liveDirty := map[uint64]bool{}
		for i, b := range blocks {
			block := uint64(b%6) * bb
			v, dirty := c.Insert(block, Modified, words(uint64(i)))
			if dirty {
				if !liveDirty[v.Addr] {
					return false // victim we didn't think was dirty-resident
				}
				delete(liveDirty, v.Addr)
			}
			liveDirty[block] = true
			// Anything we believe dirty must be resident.
			for addr := range liveDirty {
				ln := c.Lookup(addr)
				if ln == nil || ln.State != Modified {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestStatsAndAccessors(t *testing.T) {
	c := New(4, 2, bb)
	if c.BlockBytes() != bb {
		t.Fatalf("BlockBytes = %d", c.BlockBytes())
	}
	c.Insert(0x1000, Shared, words(1)) // miss
	c.Touch(0x1000)                    // hit
	c.Touch(0x9999000)                 // absent: no hit counted
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Evictions != 0 {
		t.Fatalf("stats = %+v, want 1 hit, 1 miss, 0 evictions", st)
	}
}

func TestResidentBlocksSorted(t *testing.T) {
	c := New(4, 2, bb)
	// Three blocks in three different sets (set = block/128 mod 4).
	c.Insert(0x1100, Shared, words(1))
	c.Insert(0x1000, Modified, words(2))
	c.Insert(0x1080, Shared, words(3))
	got := c.ResidentBlocks()
	want := []uint64{0x1000, 0x1080, 0x1100}
	if len(got) != 3 {
		t.Fatalf("blocks = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("blocks = %v, want %v", got, want)
		}
	}
	if len(New(1, 1, bb).ResidentBlocks()) != 0 {
		t.Fatal("empty cache has residents")
	}
}

var sink *Cache

// TestNewAllocatesNoLines pins first-touch allocation. New allocates only
// the set index, less than one line per set whatever the way count, and an
// operation on an untouched set reports not-found without allocating it.
func TestNewAllocatesNoLines(t *testing.T) {
	const sets, runs = 128, 50
	lineBytes := uint64(unsafe.Sizeof(Line{}))
	for _, ways := range []int{1, 4, 64} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			sink = New(sets, ways, bb)
		}
		runtime.ReadMemStats(&after)
		if got := (after.TotalAlloc - before.TotalAlloc) / runs; got >= sets*lineBytes {
			t.Errorf("New(%d, %d) allocates %d bytes, want under %d (one line per set)", sets, ways, got, sets*lineBytes)
		}
		c := New(sets, ways, bb)
		untouched := func() {
			const addr = 0x4008
			c.Lookup(addr)
			c.Touch(addr)
			c.Invalidate(addr)
			c.Downgrade(addr)
			c.Promote(addr)
			c.PatchWord(addr, 1)
			c.ReadWord(addr)
		}
		if allocs := testing.AllocsPerRun(10, untouched); allocs != 0 {
			t.Errorf("%d ways: operations on an untouched set allocate %.1f/op, want 0", ways, allocs)
		}
		if c.touched != 0 {
			t.Fatalf("%d ways: %d sets allocated without an Insert", ways, c.touched)
		}
		if st := c.Stats(); st.Hits != 0 || st.Misses != 0 {
			t.Errorf("%d ways: untouched operations counted %+v", ways, st)
		}
	}
}

// TestCacheSteadyStateZeroAlloc pins the touched-set paths at zero
// allocations: Lookup, Touch, PatchWord, Insert in place, Insert with a
// dirty and a clean eviction, and Invalidate. Each way allocates its buffer
// on its first fill and the dirty victim swaps into the cache's spare, so
// one caller buffer serves every Insert.
func TestCacheSteadyStateZeroAlloc(t *testing.T) {
	c := New(4, 2, bb)
	buf := words(0)
	// Blocks a, b and d all map to set 0 (block/128 mod 4).
	const a, b, d = 0x0000, 0x0200, 0x0400
	op := func() {
		buf[0]++
		c.Insert(a, Shared, buf)
		c.Insert(a, Modified, buf) // in place
		c.Touch(a)
		c.PatchWord(a+8, 9)
		if c.Lookup(a) == nil {
			t.Fatal("lookup missed a resident block")
		}
		c.Insert(b, Shared, buf)
		v, dirty := c.Insert(d, Shared, buf) // evicts a, the LRU way
		if !dirty || v.Addr != a || v.Words[1] != 9 {
			t.Fatalf("eviction = %+v, %v; want dirty victim %#x", v, dirty, a)
		}
		c.Insert(a, Shared, buf) // evicts b, clean
		for _, blk := range []uint64{a, d} {
			c.Invalidate(blk)
		}
	}
	op() // first touch allocates set 0's ways, their buffers and the spare
	if allocs := testing.AllocsPerRun(100, op); allocs != 0 {
		t.Fatalf("touched-set cache operations allocate %.1f/op, want 0", allocs)
	}
}

// TestInsertCopiesWords: the cache keeps its own copy of an inserted
// block, so mutating the caller's buffer after Insert, on a fresh fill and
// on an in-place replace, leaves the line unchanged.
func TestInsertCopiesWords(t *testing.T) {
	c := New(4, 2, bb)
	w := words(1)
	c.Insert(0x1000, Shared, w)
	w[0], w[3] = 50, 50
	if got, _ := c.ReadWord(0x1000); got != 1 {
		t.Fatalf("word 0 = %d after the caller mutated its buffer, want 1", got)
	}
	w = words(2)
	c.Insert(0x1000, Modified, w)
	w[3] = 60
	if got, _ := c.ReadWord(0x1018); got != 2 {
		t.Fatalf("word 3 = %d after an in-place Insert and a caller mutation, want 2", got)
	}
}

// TestDirtyVictimWordsSurviveFill: a dirty victim's Words hold every
// evicted word after the Insert that displaced it, until the next Insert,
// even though the incoming block filled the victim's way.
func TestDirtyVictimWordsSurviveFill(t *testing.T) {
	c := New(1, 1, bb)
	c.Insert(0x0000, Modified, words(9))
	c.WriteWord(0x0008, 10)
	v, dirty := c.Insert(0x1000, Modified, words(1))
	if !dirty || v.Addr != 0 {
		t.Fatalf("victim = %+v, %v; want dirty block 0", v, dirty)
	}
	want := words(9)
	want[1] = 10
	if !slices.Equal(v.Words, want) {
		t.Fatalf("victim words = %v, want %v (evicted contents overwritten)", v.Words, want)
	}
	// Invalidate does not touch the spare: the victim stays readable until
	// the next Insert.
	c.Invalidate(0x1000)
	if v.Words[1] != 10 {
		t.Fatalf("victim word 1 = %d after Invalidate, want 10", v.Words[1])
	}
}

// TestWaysNeverMove touches every set of a cache, one block per set, and
// checks that each block stays where it was inserted: touching more sets
// allocates new storage for them and never copies the ways already in use.
func TestWaysNeverMove(t *testing.T) {
	const sets = 128
	c := New(sets, 2, bb)
	var first []*Line
	for s := uint64(0); s < sets; s++ {
		addr := s * bb
		c.Insert(addr, Shared, words(s))
		first = append(first, c.Lookup(addr))
	}
	for s := uint64(0); s < sets; s++ {
		addr := s * bb
		if ln := c.Lookup(addr); ln != first[s] || ln.Words[0] != s {
			t.Fatalf("set %d: line moved or lost after touching every set", s)
		}
	}
	if got := len(c.ResidentBlocks()); got != sets {
		t.Fatalf("ResidentBlocks holds %d blocks, want %d", got, sets)
	}
}
