//go:build fixture_excluded

// This file is excluded by its build constraint: the amolint loader honors
// //go:build lines, so no rule ever sees it. It deliberately violates the
// determinism rule WITHOUT a want comment — if the loader regresses and starts
// parsing constrained-out files, TestFixtures fails with an unexpected
// diagnostic from this file.
package machine

import "time"

// ExcludedStamp would violate the determinism rule if this file were loaded.
func ExcludedStamp() int64 {
	return time.Now().UnixNano()
}
