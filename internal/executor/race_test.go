//go:build race

package executor

// raceDetector reports a -race build, where tests whose cost is a
// quadratic reference rather than concurrency keep to their small cases.
const raceDetector = true
