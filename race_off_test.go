//go:build !race

package stpq

// raceDetector reports whether the tests run under the race detector.
const raceDetector = false
