package topology

import (
	"fmt"
	"math/rand"
	"testing"
)

// refTreeHops is the fat-tree distance by definition: both leaves climb one
// router level at a time, dividing by the radix, until they meet, 2 links
// per level.
func refTreeHops(a, b, radix int) int {
	hops := 0
	for a != b {
		a /= radix
		b /= radix
		hops += 2
	}
	return hops
}

// refTorusDims is the most-square factor pair of nodes: the largest factor
// at most its square root is the height.
func refTorusDims(nodes int) (width, height int) {
	height = 1
	for f := 1; f*f <= nodes; f++ {
		if nodes%f == 0 {
			height = f
		}
	}
	return nodes / height, height
}

// refTorusHops is the torus distance by definition: the shorter way around
// the row's ring plus the shorter way around the column's.
func refTorusHops(a, b, width, height int) int {
	return ringDist(a%width, b%width, width) + ringDist(a/width, b/width, height)
}

func ringDist(a, b, n int) int {
	d := a - b
	if d < 0 {
		d = -d
	}
	return min(d, n-d)
}

// diameter is the largest distance between two nodes of t.
func diameter(t *Topology) int {
	d := 0
	for a := 0; a < t.Nodes(); a++ {
		for b := 0; b < t.Nodes(); b++ {
			d = max(d, t.Hops(a, b))
		}
	}
	return d
}

// checkPairs compares t.Hops with ref on every pair of nodes.
func checkPairs(t *testing.T, topo Topology, ref func(a, b int) int) {
	t.Helper()
	for a := 0; a < topo.Nodes(); a++ {
		for b := 0; b < topo.Nodes(); b++ {
			if got, want := topo.Hops(a, b), ref(a, b); got != want {
				t.Fatalf("Hops(%d, %d) = %d, reference %d", a, b, got, want)
			}
		}
	}
}

// checkSampled compares t.Hops with ref on pseudo-random pairs.
func checkSampled(t *testing.T, topo Topology, ref func(a, b int) int) {
	t.Helper()
	rng := rand.New(rand.NewSource(int64(topo.Nodes())))
	for i := 0; i < 1<<16; i++ {
		a, b := rng.Intn(topo.Nodes()), rng.Intn(topo.Nodes())
		if got, want := topo.Hops(a, b), ref(a, b); got != want {
			t.Fatalf("Hops(%d, %d) = %d, reference %d", a, b, got, want)
		}
	}
}

// TestFatTreeHopTableMatchesHops compares the fat tree's whole hop table,
// Hops over every pair of leaves, with the reference division loop.
func TestFatTreeHopTableMatchesHops(t *testing.T) {
	for _, radix := range []int{2, 4, 8} {
		ref := func(a, b int) int { return refTreeHops(a, b, radix) }
		for _, nodes := range []int{1, 2, 7, 8, 9, 63, 64, 65, 512, 513, 2048, MaxNodes} {
			t.Run(fmt.Sprintf("radix=%d/nodes=%d", radix, nodes), func(t *testing.T) {
				ft, err := NewFatTree(nodes, radix)
				if err != nil {
					t.Fatal(err)
				}
				if nodes == MaxNodes {
					checkSampled(t, ft, ref)
					return
				}
				checkPairs(t, ft, ref)
			})
		}
	}
}

// TestTorusHopTableMatchesHops compares the torus's whole hop table with
// the reference ring loops. The square and 2 x 1 grids cannot tell the two
// dimensions apart; 8, 32 and 2048 nodes are the 4 x 2, 8 x 4 and 64 x 32
// grids of 16-, 64- and 4096-CPU machines.
func TestTorusHopTableMatchesHops(t *testing.T) {
	for nodes := 1; nodes <= MaxNodes; nodes *= 2 {
		t.Run(fmt.Sprintf("nodes=%d", nodes), func(t *testing.T) {
			tor, err := NewTorus2D(nodes)
			if err != nil {
				t.Fatal(err)
			}
			width, height := refTorusDims(nodes)
			ref := func(a, b int) int { return refTorusHops(a, b, width, height) }
			if nodes == MaxNodes {
				checkSampled(t, tor, ref)
				return
			}
			checkPairs(t, tor, ref)
		})
	}
}

// TestMinHopsAcrossMatchesScan pins the closed-form lookahead distance
// against the all-pairs scan it replaces, on the contiguous partition the
// machine builds (node n in shard n*shards/nodes) and on a round-robin
// one, for every shard count from 2 to min(nodes, 16).
func TestMinHopsAcrossMatchesScan(t *testing.T) {
	type topo struct {
		name string
		t    Topology
	}
	var topos []topo
	for _, nodes := range []int{2, 3, 4, 7, 8, 9, 16, 32, 63, 64, 65, 128, 200, 256, 512} {
		for _, radix := range []int{2, 4, 8} {
			ft, err := NewFatTree(nodes, radix)
			if err != nil {
				t.Fatal(err)
			}
			topos = append(topos, topo{fmt.Sprintf("fattree/radix=%d/nodes=%d", radix, nodes), ft})
		}
		if tor, err := NewTorus2D(nodes); err == nil {
			topos = append(topos, topo{fmt.Sprintf("torus/nodes=%d", nodes), tor})
		}
	}
	partitions := []struct {
		name  string
		shard func(n, nodes, shards int) int
	}{
		{"contiguous", func(n, nodes, shards int) int { return n * shards / nodes }},
		{"round-robin", func(n, nodes, shards int) int { return n % shards }},
	}
	for _, tp := range topos {
		t.Run(tp.name, func(t *testing.T) {
			nodes := tp.t.Nodes()
			nodeShard := make([]int, nodes)
			for shards := 2; shards <= min(nodes, 16); shards++ {
				for _, p := range partitions {
					for n := range nodeShard {
						nodeShard[n] = p.shard(n, nodes, shards)
					}
					want := 0
					for a := 0; a < nodes; a++ {
						for b := 0; b < nodes; b++ {
							if h := tp.t.Hops(a, b); nodeShard[a] != nodeShard[b] && (want == 0 || h < want) {
								want = h
							}
						}
					}
					if got := tp.t.MinHopsAcross(nodeShard); got != want {
						t.Fatalf("%s, %d shards: MinHopsAcross = %d, all-pairs scan %d", p.name, shards, got, want)
					}
				}
			}
		})
	}
}

// TestMaxNodes pins the node bound both constructors enforce.
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
	if _, err := NewTorus2D(2 * MaxNodes); err == nil {
		t.Error("NewTorus2D(2 * MaxNodes) accepted")
	}
}
