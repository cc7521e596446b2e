//go:build race

package pdnclient

// RaceEnabled reports whether the race detector is compiled in; it is
// exported for the external test package. Under it sync.Pool drops a
// share of what is put back, so net/http's pooled copy and bufio
// buffers are allocated again at random.
const RaceEnabled = true
