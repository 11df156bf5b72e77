package topology

import (
	"fmt"
	"testing"
)

// checkTable compares every entry of topo's hop table with the reference
// per-pair Hops.
func checkTable(t *testing.T, topo Topology) {
	t.Helper()
	h := topo.HopTable()
	n := topo.Nodes()
	if h.Nodes() != n {
		t.Fatalf("table has %d nodes, topology %d", h.Nodes(), n)
	}
	for a := 0; a < n; a++ {
		for b := 0; b < n; b++ {
			if got, want := h.Hops(a, b), topo.Hops(a, b); got != want {
				t.Fatalf("table Hops(%d, %d) = %d, reference %d", a, b, got, want)
			}
		}
	}
}

func TestFatTreeHopTableMatchesHops(t *testing.T) {
	for _, radix := range []int{2, 4, 8} {
		for _, nodes := range []int{1, 2, 7, 8, 9, 63, 64, 65, 512, 513, 2048} {
			t.Run(fmt.Sprintf("radix=%d/nodes=%d", radix, nodes), func(t *testing.T) {
				ft, err := NewFatTree(nodes, radix)
				if err != nil {
					t.Fatal(err)
				}
				checkTable(t, ft)
			})
		}
	}
}

// The square and 2 x 1 grids cannot tell the two dimensions apart; 8, 32
// and 2048 nodes are the 4 x 2, 8 x 4 and 64 x 32 grids of 16-, 64- and
// 4096-CPU machines.
func TestTorusHopTableMatchesHops(t *testing.T) {
	for _, nodes := range []int{1, 2, 4, 8, 16, 32, 64, 1024, 2048} {
		t.Run(fmt.Sprintf("nodes=%d", nodes), func(t *testing.T) {
			tor, err := NewTorus2D(nodes)
			if err != nil {
				t.Fatal(err)
			}
			checkTable(t, tor)
		})
	}
}

// TestMaxNodes pins the node bound both constructors enforce, which keeps
// a hop table at most MaxNodes² entries.
func TestMaxNodes(t *testing.T) {
	if _, err := NewFatTree(MaxNodes, 2); err != nil {
		t.Errorf("NewFatTree(MaxNodes, 2): %v", err)
	}
	if _, err := NewTorus2D(MaxNodes); err != nil {
		t.Errorf("NewTorus2D(MaxNodes): %v", err)
	}
	if _, err := NewFatTree(MaxNodes+1, 8); err == nil {
		t.Error("NewFatTree(MaxNodes+1, 8) accepted")
	}
	if _, err := NewTorus2D(MaxNodes + 1); err == nil {
		t.Error("NewTorus2D(MaxNodes+1) accepted")
	}
}
