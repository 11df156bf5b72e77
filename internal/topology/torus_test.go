package topology

import (
	"testing"
	"testing/quick"
)

func TestNewTorus2DErrors(t *testing.T) {
	for _, nodes := range []int{0, -1, 2 * MaxNodes} {
		if _, err := NewTorus2D(nodes); err == nil {
			t.Errorf("NewTorus2D(%d) accepted", nodes)
		}
	}
}

func TestTorusDims(t *testing.T) {
	cases := []struct{ nodes, w, h int }{
		{1, 1, 1},
		{2, 2, 1},
		{4, 2, 2},
		{8, 4, 2},
		{16, 4, 4},
		{128, 16, 8},
		{2048, 64, 32},
	}
	for _, c := range cases {
		tor, err := NewTorus2D(c.nodes)
		if err != nil {
			t.Fatal(err)
		}
		w, h := tor.Dims()
		if w != c.w || h != c.h {
			t.Errorf("NewTorus2D(%d) dims = %dx%d, want %dx%d", c.nodes, w, h, c.w, c.h)
		}
		if tor.Nodes() != c.nodes {
			t.Errorf("Nodes = %d, want %d", tor.Nodes(), c.nodes)
		}
	}
	// A node count that is not a power of two has no power-of-two grid.
	for _, nodes := range []int{12, 7} {
		if _, err := NewTorus2D(nodes); err == nil {
			t.Errorf("NewTorus2D(%d) accepted", nodes)
		}
	}
}

func TestTorusHopsKnownValues(t *testing.T) {
	tor, _ := NewTorus2D(16) // 4x4
	cases := []struct{ a, b, hops int }{
		{0, 0, 0},
		{0, 1, 1},
		{0, 3, 1},  // wrap-around in x
		{0, 4, 1},  // one step in y
		{0, 12, 1}, // wrap-around in y
		{0, 5, 2},
		{0, 10, 4}, // opposite corner: 2+2
	}
	for _, c := range cases {
		if got := tor.Hops(c.a, c.b); got != c.hops {
			t.Errorf("Hops(%d, %d) = %d, want %d", c.a, c.b, got, c.hops)
		}
	}
	if got := diameter(&tor); got != 4 {
		t.Errorf("diameter = %d, want 4", got)
	}
}

func TestTorusHopsProperties(t *testing.T) {
	tor, _ := NewTorus2D(64)
	diam := diameter(&tor)
	f := func(a, b, c uint8) bool {
		x, y, z := int(a)%64, int(b)%64, int(c)%64
		if tor.Hops(x, y) != tor.Hops(y, x) {
			return false
		}
		if (tor.Hops(x, y) == 0) != (x == y) {
			return false
		}
		if tor.Hops(x, y) > diam {
			return false
		}
		return tor.Hops(x, z) <= tor.Hops(x, y)+tor.Hops(y, z)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
