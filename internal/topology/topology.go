// Package topology models the interconnect of the simulated machine: a fat
// tree in which every non-leaf router has a fixed number of children (radix
// 8 for the NUMALink-4-style network of the paper), whose leaves are the
// nodes (hubs), or a Cray-T3E-style two-dimensional torus. The package
// answers one question — how many links separate two nodes — in O(1) from
// the two node indices, and bounds it below across the parts of a
// partition for the parallel kernel's lookahead.
package topology

import (
	"fmt"
	"math/bits"
)

// MaxNodes bounds the node count of a topology. The distances themselves
// hold up to 1<<15 nodes (a bit length below 16 indexes the fat tree's
// table); the bound stays at 4,096 nodes, 8,192 CPUs at two per node, the
// largest machine whose construction and runs have been measured.
const MaxNodes = 1 << 12

// Topology is an immutable interconnect over nodes 0..Nodes()-1. Build one
// with NewFatTree or NewTorus2D. Both forms rely on a power of two: the
// fat tree's radix, the torus's node count.
type Topology struct {
	nodes int
	torus bool
	// treeHops[l] is the fat-tree distance between two leaves whose indices
	// first differ in bit l-1 (l = bits.Len(a^b)): on a radix-2^k tree they
	// share a router ⌈l/k⌉ levels up, 2 links per level. Hops indexes it
	// with l&15, which is l below 2^15 nodes and needs no bounds check.
	treeHops [16]uint8
	// The torus is a width x height grid, both powers of two: node n sits
	// in column n&wmask of row n>>wbits.
	wbits        uint
	wmask, hmask int
}

func checkNodes(nodes int) error {
	if nodes <= 0 || nodes > MaxNodes {
		return fmt.Errorf("topology: nodes must be in [1, %d], got %d", MaxNodes, nodes)
	}
	return nil
}

func isPow2(n int) bool { return n > 0 && n&(n-1) == 0 }

// NewFatTree builds a fat tree connecting nodes leaves with routers of the
// given radix, which must be a power of two. A single-node "tree" has no
// routers.
func NewFatTree(nodes, radix int) (Topology, error) {
	if err := checkNodes(nodes); err != nil {
		return Topology{}, err
	}
	if radix < 2 || !isPow2(radix) {
		return Topology{}, fmt.Errorf("topology: radix must be a power of two >= 2, got %d", radix)
	}
	k := bits.TrailingZeros(uint(radix))
	t := Topology{nodes: nodes}
	for l := range t.treeHops {
		t.treeHops[l] = uint8(2 * ((l + k - 1) / k))
	}
	return t, nil
}

// NewTorus2D builds the most-square torus over nodes nodes, which must be
// a power of two: 2^m nodes make a 2^⌈m/2⌉-wide, 2^⌊m/2⌋-high grid with
// wrap-around links in both dimensions. Routing is dimension-ordered, the
// shorter way around each ring.
func NewTorus2D(nodes int) (Topology, error) {
	if err := checkNodes(nodes); err != nil {
		return Topology{}, err
	}
	if !isPow2(nodes) {
		return Topology{}, fmt.Errorf("topology: a torus needs a power-of-two node count, got %d", nodes)
	}
	m := bits.TrailingZeros(uint(nodes))
	wbits, hbits := m-m/2, m/2
	return Topology{nodes: nodes, torus: true, wbits: uint(wbits), wmask: 1<<wbits - 1, hmask: 1<<hbits - 1}, nil
}

// Nodes returns the node count.
func (t *Topology) Nodes() int { return t.nodes }

// Dims returns the torus grid's width and height; it means nothing on a
// fat tree.
func (t *Topology) Dims() (width, height int) { return t.wmask + 1, t.hmask + 1 }

// Hops returns the number of link traversals between nodes a and b, 0 when
// a == b. Two fat-tree leaves under the same first-level router are 2 hops
// apart (up, down), and the distance grows by 2 per extra level to their
// lowest common ancestor; two torus nodes are the sum of their ring
// distances apart. Both must be in [0, Nodes()), which Hops does not check:
// node indices come only from the machine's own endpoints.
func (t *Topology) Hops(a, b int) int {
	if !t.torus {
		return int(t.treeHops[bits.Len(uint(a^b))&15])
	}
	dx := (a - b) & t.wmask
	dy := (a>>t.wbits - b>>t.wbits) & t.hmask
	return min(dx, t.wmask+1-dx) + min(dy, t.hmask+1-dy)
}

// MinHopsAcross returns the least distance between two nodes in different
// parts of a partition, where nodeShard[n] is node n's part, or 0 when all
// nodes share one part. A fat tree's subtrees are contiguous ranges of
// leaves, so the routers above any cross-part pair a < b also span some
// pair (n-1, n) in [a, b] whose parts differ, and the minimum over those
// boundary pairs is exact. A torus is connected, so two parts always hold
// two nodes one hop apart. A new topology needs its own rule here, pinned
// against the all-pairs scan.
func (t *Topology) MinHopsAcross(nodeShard []int) int {
	least := 0
	for n := 1; n < len(nodeShard); n++ {
		if nodeShard[n] == nodeShard[n-1] {
			continue
		}
		if t.torus {
			return 1
		}
		if h := t.Hops(n-1, n); least == 0 || h < least {
			least = h
		}
	}
	return least
}
