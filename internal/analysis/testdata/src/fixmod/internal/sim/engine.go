// Package sim is the event kernel: the one simulation package allowed to
// spawn goroutines (the determinism rule's goroutine true negative).
package sim

// Spawn starts a process goroutine; not flagged inside internal/sim.
func Spawn(f func()) {
	go f()
}
