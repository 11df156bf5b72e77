package topology

// MaxNodes bounds the node count of a topology. A machine's hop table holds
// nodes² entries, 32 MiB at the bound, and every distance on a topology this
// size fits the table's uint16 entries.
const MaxNodes = 1 << 12

// HopTable is the dense all-pairs hop-distance matrix of a topology. A
// machine builds one at construction and shares it between the network,
// which reads one entry per message, and the parallel kernel's lookahead
// derivation, so no per-message or per-pair topology call remains.
type HopTable struct {
	nodes int
	hops  []uint16 // hops[a*nodes+b] is the distance from a to b
}

func newHopTable(nodes int) HopTable {
	return HopTable{nodes: nodes, hops: make([]uint16, nodes*nodes)}
}

// row returns the distances from node a, indexed by destination node.
func (h HopTable) row(a int) []uint16 { return h.hops[a*h.nodes : (a+1)*h.nodes] }

// Nodes returns the node count.
func (h HopTable) Nodes() int { return h.nodes }

// Hops returns the link traversals between nodes a and b. Both must be in
// [0, Nodes()); the hot path does not check beyond the slice bound.
func (h HopTable) Hops(a, b int) int { return int(h.hops[a*h.nodes+b]) }

// HopTable returns the tree's distance matrix. Each row is filled by
// subtree ranges rather than per pair: the leaves under a's level-L router,
// less those under its level-(L-1) router, are all 2L hops from a.
func (t *FatTree) HopTable() HopTable {
	h := newHopTable(t.nodes)
	for a := 0; a < t.nodes; a++ {
		row := h.row(a)
		lo, hi, span := a, a+1, 1
		for hops := uint16(2); lo > 0 || hi < t.nodes; hops += 2 {
			span *= t.radix
			sublo := a / span * span
			subhi := min(sublo+span, t.nodes)
			fill(row[sublo:lo], hops)
			fill(row[hi:subhi], hops)
			lo, hi = sublo, subhi
		}
	}
	return h
}

// HopTable returns the torus's distance matrix, one ring distance per
// column and row of the grid instead of a division per pair.
func (t *Torus2D) HopTable() HopTable {
	h := newHopTable(t.Nodes())
	for a := 0; a < h.nodes; a++ {
		row := h.row(a)
		ax, ay := a%t.width, a/t.width
		for by := 0; by < t.height; by++ {
			dy := ringDist(ay, by, t.height)
			for bx := 0; bx < t.width; bx++ {
				row[by*t.width+bx] = uint16(dy + ringDist(ax, bx, t.width))
			}
		}
	}
	return h
}

func fill(s []uint16, v uint16) {
	for i := range s {
		s[i] = v
	}
}
