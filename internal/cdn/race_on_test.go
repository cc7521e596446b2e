//go:build race

package cdn

// raceEnabled reports whether the race detector is compiled in. Under
// it sync.Pool drops a share of what is put back, so net/http's pooled
// copy and bufio buffers are allocated again at random.
const raceEnabled = true
