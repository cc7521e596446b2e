//go:build !race

package pdnclient

// raceEnabled reports whether the race detector is compiled in.
const raceEnabled = false
