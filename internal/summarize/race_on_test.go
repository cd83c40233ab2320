//go:build race

package summarize_test

// raceEnabled reports whether the tests run under the race detector.
const raceEnabled = true
