// Package stats is outside every determinism scope: map iteration here is
// not the determinism rule's business.
package stats

// Sum iterates a map freely; no diagnostic expected.
func Sum(m map[string]int) int {
	total := 0
	for _, v := range m {
		total += v
	}
	return total
}

// MinMax returns a bare integer tuple, but outside the counter packages the
// barecounter rule does not apply; no diagnostic expected.
func MinMax(m map[string]int) (int, int) {
	lo, hi := 0, 0
	for _, v := range m {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	return lo, hi
}
