//go:build !race

package pdnclient

// RaceEnabled reports whether the race detector is compiled in; it is
// exported for the external test package.
const RaceEnabled = false
