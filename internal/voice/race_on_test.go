//go:build race

package voice

// raceEnabled reports whether the tests run under the race detector.
const raceEnabled = true
