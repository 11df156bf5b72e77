package machine

// This _test.go file is excluded by name: amolint rules check only the
// non-test build of each package (see the Load doc comment). It violates
// the determinism rule WITHOUT a want comment — if the loader regresses and
// starts parsing test files, TestFixtures fails with an unexpected
// diagnostic from this file.

import "time"

// TestOnlyStamp would violate the determinism rule if test files were loaded.
func TestOnlyStamp() int64 {
	return time.Now().UnixNano()
}
