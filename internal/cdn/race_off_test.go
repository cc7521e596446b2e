//go:build !race

package cdn

// raceEnabled reports whether the race detector is compiled in.
const raceEnabled = false
