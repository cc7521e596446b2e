package netsim

import (
	"fmt"
	"math/rand"
	"net/netip"
	"sync"
	"sync/atomic"
)

// This file implements the programmable impairment engine: per-host
// isolation, host crashes, and stream-level corruption/truncation
// (per-host latency and bandwidth are Host.SetLatency and
// Host.SetRates). The engine exists so
// chaos scenarios (internal/chaos) can reproduce the failure modes the
// paper's attacks hinge on — peers vanishing mid-segment, polluted
// bytes in flight, a browned-out CDN — while the zero state stays an
// exact no-op: until the first impairment is installed every hook is a
// single atomic load, so the parity gates (Tables I–IV byte-identity)
// hold with the engine present but disabled.
//
// All randomness (corruption decisions and positions) comes from one
// seeded source derived from Config.Seed, so a run is reproducible
// given the same seed and traffic order.

// impairSeedMix decorrelates the impairment RNG stream from the global
// UDP-loss stream that shares Config.Seed.
const impairSeedMix int64 = 0x5e3779b97f4a7c15

// corruptRule mangles stream chunks sent by one host.
type corruptRule struct {
	prob     float64
	truncate bool
}

// impairments holds all installed overrides. The zero value (no maps,
// active=false) impairs nothing.
type impairments struct {
	active atomic.Bool // set once the first override is installed

	mu       sync.Mutex
	rng      *rand.Rand
	isolated map[netip.Addr]bool
	corrupt  map[netip.Addr]corruptRule
}

// ensureLocked lazily allocates the override maps. Caller holds imp.mu.
func (imp *impairments) ensureLocked(seed int64) {
	if imp.rng == nil {
		imp.rng = rand.New(rand.NewSource(seed ^ impairSeedMix))
		imp.isolated = make(map[netip.Addr]bool)
		imp.corrupt = make(map[netip.Addr]corruptRule)
	}
}

// install runs fn with the engine locked and marks the engine active.
func (n *Network) install(fn func(imp *impairments)) {
	imp := &n.imp
	imp.mu.Lock()
	imp.ensureLocked(n.cfg.Seed)
	fn(imp)
	imp.mu.Unlock()
	imp.active.Store(true)
}

// Isolate cuts one host address off from every other host (the "signal
// server partition" chaos primitive) and severs its established
// streams. Traffic between other hosts is unaffected.
func (n *Network) Isolate(ip netip.Addr) {
	n.install(func(imp *impairments) { imp.isolated[ip] = true })
	n.severConns(func(x, y *Host) bool { return x.ip == ip || y.ip == ip })
}

// Rejoin reverses Isolate.
func (n *Network) Rejoin(ip netip.Addr) {
	n.install(func(imp *impairments) { delete(imp.isolated, ip) })
}

// CorruptStreams makes each stream chunk sent by the given host address
// be mangled with the given probability: a corruption flips bytes at
// seeded positions, a truncation cuts the chunk short. This models the
// paper's in-flight degradation cases without touching the sender's
// own state. p must be in [0,1].
func (n *Network) CorruptStreams(from netip.Addr, p float64, truncate bool) {
	if !(p >= 0 && p <= 1) {
		panic(fmt.Sprintf("netsim: CorruptStreams probability %v outside [0,1]", p))
	}
	n.install(func(imp *impairments) { imp.corrupt[from] = corruptRule{prob: p, truncate: truncate} })
}

// ClearCorrupt removes a CorruptStreams rule.
func (n *Network) ClearCorrupt(from netip.Addr) {
	n.install(func(imp *impairments) { delete(imp.corrupt, from) })
}

// blockedPath reports whether traffic from one address to the other is
// cut by an isolation.
func (n *Network) blockedPath(from, to netip.Addr) bool {
	imp := &n.imp
	if !imp.active.Load() {
		return false
	}
	imp.mu.Lock()
	defer imp.mu.Unlock()
	return imp.isolated[from] || imp.isolated[to]
}

// mangleStream applies the sender's corruption rule to a chunk on its
// way onto the stream (Write's copy, the buffer WriteOwned was given, or
// a Shared source's bytes). It returns the possibly-mutated chunk; a
// shared chunk is copied before its bytes are flipped.
func (n *Network) mangleStream(from netip.Addr, ch chunk) chunk {
	imp := &n.imp
	if !imp.active.Load() || len(ch.b) == 0 {
		return ch
	}
	imp.mu.Lock()
	defer imp.mu.Unlock()
	if imp.corrupt == nil {
		return ch
	}
	rule, ok := imp.corrupt[from]
	if !ok || imp.rng.Float64() >= rule.prob {
		return ch
	}
	if rule.truncate {
		// Keep at least one byte so stream readers never see a spurious
		// zero-length Read.
		ch.b = ch.b[:1+imp.rng.Intn(len(ch.b))]
		return ch
	}
	if ch.shared {
		ch = chunk{b: append([]byte(nil), ch.b...)}
	}
	// Flip a handful of bytes at seeded positions.
	flips := 1 + imp.rng.Intn(4)
	for i := 0; i < flips; i++ {
		pos := imp.rng.Intn(len(ch.b))
		ch.b[pos] ^= byte(1 + imp.rng.Intn(255))
	}
	return ch
}

// severConns closes every established stream whose two endpoints match
// the predicate. Connections are collected under each host's lock and
// closed outside it (Conn.Close re-enters host locks).
func (n *Network) severConns(match func(a, b *Host) bool) {
	n.mu.RLock()
	hosts := make([]*Host, 0, len(n.hosts))
	for _, h := range n.hosts {
		hosts = append(hosts, h)
	}
	n.mu.RUnlock()
	var doomed []*Conn
	for _, h := range hosts {
		h.mu.Lock()
		for c := range h.conns {
			if match(c.host, c.peerHost) {
				doomed = append(doomed, c)
			}
		}
		h.mu.Unlock()
	}
	for _, c := range doomed {
		c.Close()
	}
}

// Close crashes the host: every listener, socket, and established
// stream dies immediately and all future Listen/ListenPacket/Dial calls
// on it fail. Remote peers observe connection resets, exactly what the
// paper's churn measurements see when a viewer closes the tab. Close is
// idempotent; the address stays registered (a crashed machine does not
// free its IP).
func (h *Host) Close() error {
	h.mu.Lock()
	if h.closed {
		h.mu.Unlock()
		return nil
	}
	h.closed = true
	listeners := make([]*Listener, 0, len(h.listeners))
	for _, l := range h.listeners {
		if l != nil {
			listeners = append(listeners, l)
		}
	}
	socks := make([]*packetConn, 0, len(h.udpSocks))
	for _, pc := range h.udpSocks {
		socks = append(socks, pc)
	}
	conns := make([]*Conn, 0, len(h.conns))
	for c := range h.conns {
		conns = append(conns, c)
	}
	h.mu.Unlock()

	for _, l := range listeners {
		l.Close()
	}
	for _, pc := range socks {
		pc.Close()
	}
	for _, c := range conns {
		c.Close()
	}
	return nil
}

// Closed reports whether the host has been crashed via Close.
func (h *Host) Closed() bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.closed
}

// registerConn tracks an established stream endpoint for crash/isolation
// severing.
func (h *Host) registerConn(c *Conn) {
	h.mu.Lock()
	if h.conns == nil {
		h.conns = make(map[*Conn]struct{})
	}
	h.conns[c] = struct{}{}
	h.mu.Unlock()
}

// unregisterConn drops a closed stream endpoint.
func (h *Host) unregisterConn(c *Conn) {
	h.mu.Lock()
	delete(h.conns, c)
	h.mu.Unlock()
}
