//go:build !race

package textgen

const raceEnabled = false
