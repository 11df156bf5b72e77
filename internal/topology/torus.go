package topology

import "fmt"

// Topology is the interface the machine needs from an interconnect model.
// FatTree and Torus2D both satisfy it.
type Topology interface {
	// Nodes returns the leaf/router-attached node count.
	Nodes() int
	// Hops returns the link traversals between nodes a and b (0 when a==b).
	Hops(a, b int) int
	// Diameter returns the maximum hop count between any two nodes.
	Diameter() int
	// HopTable returns every pairwise Hops distance as a dense matrix.
	HopTable() HopTable
}

var (
	_ Topology = (*FatTree)(nil)
	_ Topology = (*Torus2D)(nil)
)

// Torus2D is a Cray-T3E-style two-dimensional torus: nodes are arranged in
// a width x height grid with wrap-around links in both dimensions; routing
// is dimension-ordered with the shorter way around each ring.
type Torus2D struct {
	width  int
	height int
}

// NewTorus2D builds the most-square torus holding at least nodes nodes:
// width is the smallest power-of-two-friendly factor pair; extra grid slots
// (when nodes is not a perfect rectangle) are simply unused.
func NewTorus2D(nodes int) (*Torus2D, error) {
	if nodes <= 0 || nodes > MaxNodes {
		return nil, fmt.Errorf("topology: nodes must be in [1, %d], got %d", MaxNodes, nodes)
	}
	// Choose the factor pair closest to square.
	w := 1
	for f := 1; f*f <= nodes; f++ {
		if nodes%f == 0 {
			w = f
		}
	}
	return &Torus2D{width: nodes / w, height: w}, nil
}

// Nodes returns the node count.
func (t *Torus2D) Nodes() int { return t.width * t.height }

// Dims returns the grid dimensions.
func (t *Torus2D) Dims() (width, height int) { return t.width, t.height }

// Hops returns the dimension-ordered shortest-ring distance.
func (t *Torus2D) Hops(a, b int) int {
	if a < 0 || a >= t.Nodes() || b < 0 || b >= t.Nodes() {
		panic(fmt.Sprintf("topology: node out of range: Hops(%d, %d) with %d nodes", a, b, t.Nodes()))
	}
	ax, ay := a%t.width, a/t.width
	bx, by := b%t.width, b/t.width
	return ringDist(ax, bx, t.width) + ringDist(ay, by, t.height)
}

// Diameter returns the maximum hop count.
func (t *Torus2D) Diameter() int { return t.width/2 + t.height/2 }

func ringDist(a, b, n int) int {
	d := a - b
	if d < 0 {
		d = -d
	}
	if n-d < d {
		d = n - d
	}
	return d
}
