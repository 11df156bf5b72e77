// Package sweep is a sweepshare-rule fixture: the sweep engine must stay
// machine-blind, so importing any module package — a machine-state
// package or the event kernel (internal/sim) — is a positive.
package sweep

import (
	"fixmod/internal/machine" // want "internal/sweep must stay machine-blind"
	"fixmod/internal/sim"     // want "internal/sweep must stay machine-blind"
)

// Drive spawns a worker through the event kernel and stamps it via the
// machine package (both flagged at the imports above).
func Drive(f func()) int64 {
	sim.Spawn(f)
	return machine.Stamp()
}
