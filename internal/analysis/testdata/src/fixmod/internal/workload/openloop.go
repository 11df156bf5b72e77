// Package workload is the second open-loop fixture of the determinism
// rule: request workloads feed the open-loop driver and share its contract.
package workload

// Degrees is the raw-map-range positive: emitting a graph in map order
// desynchronizes the request stream between runs.
func Degrees(adj map[int][]int) int {
	total := 0
	for u := range adj { // want `nondeterministic iteration over map\[int\]\[\]int in an open-loop traffic package`
		total += len(adj[u])
	}
	return total
}

// Outstanding is the annotated escape: a commutative sum may range the
// map directly.
func Outstanding(inflight map[uint64]int) int {
	n := 0
	//lint:order-independent the sum commutes
	for _, k := range inflight {
		n += k
	}
	return n
}

// Drain is the true negative: slice iteration is deterministic.
func Drain(queue []uint64) uint64 {
	var sum uint64
	for _, v := range queue {
		sum += v
	}
	return sum
}
