// Package directory is a determinism-rule fixture mirroring a simulation
// package: raw map iteration here must be flagged unless annotated.
package directory

import "sort"

// Fanout sends to sharers in map order: the true positive.
func Fanout(sharers map[int]struct{}, send func(int)) {
	for cpu := range sharers { // want "nondeterministic iteration over map"
		send(cpu)
	}
}

// SortedFanout collects keys under an annotation, sorts, then sends: the
// true negative for the annotated collect-then-sort idiom.
func SortedFanout(sharers map[int]struct{}, send func(int)) {
	keys := make([]int, 0, len(sharers))
	for cpu := range sharers { //lint:order-independent (keys sorted below)
		keys = append(keys, cpu)
	}
	sort.Ints(keys)
	for _, cpu := range keys {
		send(cpu)
	}
}

// SliceFanout iterates a slice: never flagged.
func SliceFanout(sharers []int, send func(int)) {
	for _, cpu := range sharers {
		send(cpu)
	}
}

// LeadingAnnotation demonstrates the annotation on the preceding line.
func LeadingAnnotation(seen map[uint64]bool) int {
	n := 0
	//lint:order-independent (pure count)
	for range seen {
		n++
	}
	return n
}
