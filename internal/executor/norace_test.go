//go:build !race

package executor

const raceDetector = false
