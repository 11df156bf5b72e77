package memsys

import (
	"testing"
	"testing/quick"
)

func TestHomeNodeRoundTrip(t *testing.T) {
	for n := 0; n < 128; n++ {
		if HomeNode(NodeBase(n)) != n {
			t.Fatalf("HomeNode(NodeBase(%d)) = %d", n, HomeNode(NodeBase(n)))
		}
		if HomeNode(NodeBase(n)+12345) != n {
			t.Fatalf("offset address left node %d", n)
		}
	}
}

func TestBlockAddrAndWordIndex(t *testing.T) {
	const bb = 128
	if BlockAddr(0x1234, bb) != 0x1200 {
		t.Errorf("BlockAddr(0x1234) = %#x", BlockAddr(0x1234, bb))
	}
	if WordIndex(0x1200, bb) != 0 {
		t.Errorf("WordIndex(base) = %d", WordIndex(0x1200, bb))
	}
	if WordIndex(0x1208, bb) != 1 {
		t.Errorf("WordIndex(base+8) = %d", WordIndex(0x1208, bb))
	}
	if WordIndex(0x1278, bb) != 15 {
		t.Errorf("WordIndex(last) = %d", WordIndex(0x1278, bb))
	}
}

func TestAllocSeparatesNodes(t *testing.T) {
	m := New(4, 128, 60)
	a := m.AllocWord(0)
	b := m.AllocWord(3)
	if HomeNode(a) != 0 || HomeNode(b) != 3 {
		t.Fatalf("homes = %d, %d", HomeNode(a), HomeNode(b))
	}
}

func TestAllocWordBlockAligned(t *testing.T) {
	m := New(2, 128, 60)
	prev := uint64(0)
	for i := 0; i < 10; i++ {
		a := m.AllocWord(1)
		if a%128 != 0 {
			t.Fatalf("AllocWord returned unaligned %#x", a)
		}
		if i > 0 && BlockAddr(a, 128) == BlockAddr(prev, 128) {
			t.Fatalf("two AllocWords share a block: %#x, %#x", prev, a)
		}
		prev = a
	}
}

func TestAllocAlignment(t *testing.T) {
	m := New(1, 128, 60)
	_ = m.Alloc(0, 8, 8)
	a := m.Alloc(0, 64, 64)
	if a%64 != 0 {
		t.Fatalf("Alloc(align=64) returned %#x", a)
	}
}

func TestAllocPanics(t *testing.T) {
	m := New(1, 128, 60)
	for _, f := range []func(){
		func() { m.Alloc(1, 8, 8) },  // bad node
		func() { m.Alloc(0, 8, 4) },  // align < word
		func() { m.Alloc(0, 8, 24) }, // non power of two
		func() { m.Alloc(0, 0, 8) },  // zero size
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

func TestReadWriteWord(t *testing.T) {
	m := New(2, 128, 60)
	a := m.AllocWord(1)
	if m.ReadWord(a) != 0 {
		t.Fatal("fresh word not zero")
	}
	m.WriteWord(a, 42)
	if m.ReadWord(a) != 42 {
		t.Fatalf("ReadWord = %d, want 42", m.ReadWord(a))
	}
}

func TestUnalignedPanics(t *testing.T) {
	m := New(1, 128, 60)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	m.ReadWord(3)
}

func TestBlockIO(t *testing.T) {
	m := New(1, 128, 60)
	base := m.Alloc(0, 128, 128)
	words := make([]uint64, 16)
	for i := range words {
		words[i] = uint64(i * 7)
	}
	m.WriteBlock(base, words)
	got := m.ReadBlock(base + 24) // any addr within block
	for i := range words {
		if got[i] != words[i] {
			t.Fatalf("ReadBlock[%d] = %d, want %d", i, got[i], words[i])
		}
	}
	if m.ReadWord(base+8) != 7 {
		t.Fatalf("word view disagrees with block view")
	}
}

func TestWriteBlockSizeChecked(t *testing.T) {
	m := New(1, 128, 60)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	m.WriteBlock(0, make([]uint64, 3))
}

// TestAccessCounters pins the DRAM transaction counters: a block read or
// write is one access however many words it moves, written page or not.
func TestAccessCounters(t *testing.T) {
	m := New(1, 128, 60)
	a := m.AllocWord(0)
	m.WriteWord(a, 1)
	m.ReadWord(a)
	m.ReadBlock(a)
	m.WriteBlock(a, make([]uint64, 16))
	m.ReadBlockInto(a, make([]uint64, 16))
	m.ReadBlockInto(a+pageBytes, make([]uint64, 16)) // unwritten page
	st := m.Stats()
	if st.Reads != 4 || st.Writes != 2 {
		t.Fatalf("Stats = %+v; want 4 reads, 2 writes", st)
	}
}

// Property: writes are isolated — writing one allocated word never changes
// another.
func TestWriteIsolationProperty(t *testing.T) {
	f := func(vals []uint64) bool {
		if len(vals) == 0 || len(vals) > 64 {
			return true
		}
		m := New(2, 128, 60)
		addrs := make([]uint64, len(vals))
		for i := range vals {
			addrs[i] = m.AllocWord(i % 2)
			m.WriteWord(addrs[i], vals[i])
		}
		for i := range vals {
			if m.ReadWord(addrs[i]) != vals[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: distinct allocations never overlap.
func TestAllocDisjointProperty(t *testing.T) {
	f := func(sizes []uint8) bool {
		if len(sizes) == 0 || len(sizes) > 50 {
			return true
		}
		m := New(1, 128, 60)
		type span struct{ lo, hi uint64 }
		var spans []span
		for _, s := range sizes {
			size := int(s%200) + 1
			a := m.Alloc(0, size, 8)
			spans = append(spans, span{a, a + uint64(size)})
		}
		for i := range spans {
			for j := i + 1; j < len(spans); j++ {
				if spans[i].lo < spans[j].hi && spans[j].lo < spans[i].hi {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestBlocksAcrossPageBoundary writes the block that ends one page and the
// block that starts the next, and reads each back through every accessor:
// the two pages' words must stay apart.
func TestBlocksAcrossPageBoundary(t *testing.T) {
	const bb = 128
	m := New(1, bb, 60)
	last := NodeBase(0) + pageBytes - bb // last block of page 0
	first := NodeBase(0) + pageBytes     // first block of page 1
	lo, hi := make([]uint64, bb/WordBytes), make([]uint64, bb/WordBytes)
	for i := range lo {
		lo[i], hi[i] = uint64(100+i), uint64(200+i)
	}
	m.WriteBlock(last, lo)
	m.WriteBlock(first, hi)
	if got := m.ReadWord(first - WordBytes); got != lo[len(lo)-1] {
		t.Fatalf("last word of page 0 = %d, want %d", got, lo[len(lo)-1])
	}
	if got := m.ReadWord(first); got != hi[0] {
		t.Fatalf("first word of page 1 = %d, want %d", got, hi[0])
	}
	m.WriteWord(first-WordBytes, 7)
	out := make([]uint64, bb/WordBytes)
	m.ReadBlockInto(first, out)
	for i := range out {
		if out[i] != hi[i] {
			t.Fatalf("page 1 word %d = %d after a write to page 0, want %d", i, out[i], hi[i])
		}
	}
	m.ReadBlockInto(last, out)
	if out[len(out)-1] != 7 || out[0] != lo[0] {
		t.Fatalf("page 0's last block = %v, want the written block with 7 last", out)
	}

	// A block of MaxBlockBytes is exactly one page.
	big := New(1, MaxBlockBytes, 60)
	page1 := make([]uint64, pageWords)
	for i := range page1 {
		page1[i] = uint64(i + 1)
	}
	big.WriteBlock(NodeBase(0)+pageBytes+WordBytes, page1) // any address in the block
	if got := big.ReadWord(NodeBase(0) + pageBytes - WordBytes); got != 0 {
		t.Fatalf("page 0 read %d after a page-1 block write, want 0", got)
	}
	if got := big.ReadBlock(NodeBase(0) + 2*pageBytes - WordBytes); got[0] != 1 || got[pageWords-1] != pageWords {
		t.Fatalf("ReadBlock of a page-sized block = %v", got)
	}
}

// TestReadUnwrittenPageZeroFills pins zeroed-DRAM semantics for a block
// whose page was never written: the caller's (pooled, dirty) buffer must be
// overwritten with zeros, not left as it was.
func TestReadUnwrittenPageZeroFills(t *testing.T) {
	m := New(2, 128, 60)
	m.WriteWord(NodeBase(1)+5*pageBytes, 5) // the index covers pages 0-5
	out := []uint64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16}
	m.ReadBlockInto(NodeBase(1)+3*pageBytes, out)
	for i, w := range out {
		if w != 0 {
			t.Fatalf("word %d = %d, want 0 from an unwritten page", i, w)
		}
	}
	if pages := m.banks[1].pages; len(pages) != 6 || pages[3] != nil {
		t.Fatalf("page index has %d entries, want 6 with page 3 unwritten", len(pages))
	}
}

// TestFarUnwrittenReadAllocatesNothing reads far past the page index: the
// answer is zero, and reading must not allocate pages or grow the index.
func TestFarUnwrittenReadAllocatesNothing(t *testing.T) {
	m := New(1, 128, 60)
	far := NodeBase(0) + 1<<31
	out := make([]uint64, 16)
	allocs := testing.AllocsPerRun(10, func() {
		if m.ReadWord(far) != 0 {
			t.Fatal("far unwritten word is not zero")
		}
		m.ReadBlockInto(far, out)
	})
	if allocs != 0 {
		t.Fatalf("far unwritten reads allocate %.1f/op, want 0", allocs)
	}
	if n := len(m.banks[0].pages); n != 0 {
		t.Fatalf("reads grew the page index to %d entries", n)
	}
}

func TestNewRejectsBadBlockSize(t *testing.T) {
	for _, bb := range []int{0, 4, 24, MaxBlockBytes * 2} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New with block size %d did not panic", bb)
				}
			}()
			New(1, bb, 60)
		}()
	}
}

// TestMemorySteadyStateZeroAlloc pins the home-node store at zero
// allocations once its pages exist: word and block reads and writes, on
// several pages of two banks.
func TestMemorySteadyStateZeroAlloc(t *testing.T) {
	m := New(2, 128, 60)
	var addrs []uint64
	for i := 0; i < 8; i++ {
		addrs = append(addrs, m.AllocWord(i%2))
	}
	block := make([]uint64, 16)
	burst := func() {
		for i, a := range addrs {
			m.WriteWord(a, uint64(i))
			m.ReadBlockInto(a, block)
			block[1] = m.ReadWord(a) + 1
			m.WriteBlock(a, block)
		}
	}
	burst() // allocate the pages
	if allocs := testing.AllocsPerRun(100, burst); allocs != 0 {
		t.Fatalf("memory steady state allocates %.1f/burst, want 0", allocs)
	}
}
