//go:build race

package textgen

// raceEnabled gates allocation-count assertions, which are not
// meaningful under the race detector (sync.Pool drops items at random).
const raceEnabled = true
