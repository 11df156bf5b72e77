// Package topology models the interconnect topology of the simulated
// machine: a fat tree in which every non-leaf router has a fixed number of
// children (radix 8 for the NUMALink-4-style network of the paper). Nodes
// (hubs) are the leaves. The package answers one question — how many router
// hops separate two nodes — and exposes the tree structure for inspection.
package topology

import "fmt"

// FatTree is an immutable fat-tree topology over a set of leaf nodes.
type FatTree struct {
	nodes  int
	radix  int
	levels int // router levels above the leaves (>= 1 when nodes > 1)
}

// NewFatTree builds a fat tree connecting nodes leaves with routers of the
// given radix. A single-node "tree" has no routers.
func NewFatTree(nodes, radix int) (*FatTree, error) {
	if nodes <= 0 || nodes > MaxNodes {
		return nil, fmt.Errorf("topology: nodes must be in [1, %d], got %d", MaxNodes, nodes)
	}
	if radix < 2 {
		return nil, fmt.Errorf("topology: radix must be >= 2, got %d", radix)
	}
	levels := 0
	for span := 1; span < nodes; span *= radix {
		levels++
	}
	return &FatTree{nodes: nodes, radix: radix, levels: levels}, nil
}

// Nodes returns the leaf count.
func (t *FatTree) Nodes() int { return t.nodes }

// Radix returns the router radix.
func (t *FatTree) Radix() int { return t.radix }

// Levels returns the number of router levels above the leaves.
func (t *FatTree) Levels() int { return t.levels }

// Hops returns the number of router-to-router/router-to-leaf link traversals
// on the path between nodes a and b. Two leaves under the same first-level
// router are 2 hops apart (up, down); the distance grows by 2 per extra
// level to the lowest common ancestor. Hops(a, a) is 0. It is the reference
// definition HopTable is tested against; the simulation reads the table.
func (t *FatTree) Hops(a, b int) int {
	if a < 0 || a >= t.nodes || b < 0 || b >= t.nodes {
		panic(fmt.Sprintf("topology: node out of range: Hops(%d, %d) with %d nodes", a, b, t.nodes))
	}
	if a == b {
		return 0
	}
	hops := 0
	for a != b {
		a /= t.radix
		b /= t.radix
		hops += 2
	}
	return hops
}

// Diameter returns the maximum hop count between any two leaves.
func (t *FatTree) Diameter() int { return 2 * t.levels }

// CommonAncestorLevel returns the router level (1-based from just above the
// leaves) of the lowest common ancestor of a and b, or 0 when a == b.
func (t *FatTree) CommonAncestorLevel(a, b int) int {
	if a < 0 || a >= t.nodes || b < 0 || b >= t.nodes {
		panic(fmt.Sprintf("topology: node out of range: CommonAncestorLevel(%d, %d) with %d nodes", a, b, t.nodes))
	}
	level := 0
	for a != b {
		a /= t.radix
		b /= t.radix
		level++
	}
	return level
}
