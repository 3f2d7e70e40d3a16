//go:build race

package sim

// raceEnabled gates allocation-count assertions, which are not
// meaningful under the race detector.
const raceEnabled = true
