package topology

import (
	"testing"
	"testing/quick"
)

func TestNewFatTreeErrors(t *testing.T) {
	for _, c := range []struct{ nodes, radix int }{
		{0, 8},
		{-3, 8},
		{MaxNodes + 1, 8},
		{8, 1},
		{8, 0},
		{8, 6},
		{8, 12},
	} {
		if _, err := NewFatTree(c.nodes, c.radix); err == nil {
			t.Errorf("NewFatTree(%d, %d) accepted", c.nodes, c.radix)
		}
	}
}

// TestLevels pins the router levels above the leaves: the farthest pair of
// leaves is 2 hops per level apart.
func TestLevels(t *testing.T) {
	cases := []struct {
		nodes, radix, levels int
	}{
		{1, 8, 0},
		{2, 8, 1},
		{8, 8, 1},
		{9, 8, 2},
		{64, 8, 2},
		{65, 8, 3},
		{128, 8, 3},
		{2, 2, 1},
		{4, 2, 2},
		{16, 2, 4},
	}
	for _, c := range cases {
		ft, err := NewFatTree(c.nodes, c.radix)
		if err != nil {
			t.Fatalf("NewFatTree(%d, %d): %v", c.nodes, c.radix, err)
		}
		if got := diameter(&ft); got != 2*c.levels {
			t.Errorf("NewFatTree(%d, %d) diameter = %d, want %d", c.nodes, c.radix, got, 2*c.levels)
		}
	}
}

func TestHopsKnownValues(t *testing.T) {
	ft, err := NewFatTree(128, 8)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		a, b, hops int
	}{
		{0, 0, 0},
		{0, 1, 2},   // same level-1 router
		{0, 7, 2},   // same level-1 router
		{0, 8, 4},   // adjacent level-1 routers
		{0, 63, 4},  // same level-2 router
		{0, 64, 6},  // different level-2 routers
		{0, 127, 6}, // opposite corners
		{100, 101, 2},
	}
	for _, c := range cases {
		if got := ft.Hops(c.a, c.b); got != c.hops {
			t.Errorf("Hops(%d, %d) = %d, want %d", c.a, c.b, got, c.hops)
		}
	}
}

func TestHopsSymmetryProperty(t *testing.T) {
	ft, err := NewFatTree(128, 8)
	if err != nil {
		t.Fatal(err)
	}
	diam := diameter(&ft)
	f := func(a, b uint8) bool {
		x, y := int(a)%128, int(b)%128
		h := ft.Hops(x, y)
		if h != ft.Hops(y, x) {
			return false
		}
		if (h == 0) != (x == y) {
			return false
		}
		if h%2 != 0 || h > diam {
			return false
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestHopsTriangleInequalityProperty(t *testing.T) {
	ft, err := NewFatTree(64, 4)
	if err != nil {
		t.Fatal(err)
	}
	f := func(a, b, c uint8) bool {
		x, y, z := int(a)%64, int(b)%64, int(c)%64
		return ft.Hops(x, z) <= ft.Hops(x, y)+ft.Hops(y, z)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestCommonAncestorLevel: two leaves are 2 hops apart per router level up
// to their lowest common ancestor.
func TestCommonAncestorLevel(t *testing.T) {
	ft, _ := NewFatTree(64, 8)
	for _, c := range []struct{ a, b, level int }{{3, 3, 0}, {0, 5, 1}, {0, 8, 2}} {
		if got := ft.Hops(c.a, c.b); got != 2*c.level {
			t.Errorf("Hops(%d, %d) = %d, want %d (common ancestor at level %d)", c.a, c.b, got, 2*c.level, c.level)
		}
	}
}

func TestSingleNodeTree(t *testing.T) {
	ft, err := NewFatTree(1, 8)
	if err != nil {
		t.Fatal(err)
	}
	if ft.Hops(0, 0) != 0 || diameter(&ft) != 0 {
		t.Errorf("single-node tree: hops=%d diameter=%d", ft.Hops(0, 0), diameter(&ft))
	}
}
