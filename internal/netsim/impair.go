package netsim

import (
	"fmt"
	"math/rand"
	"net/netip"
	"sync"
	"sync/atomic"
	"time"
)

// This file implements the programmable impairment engine: per-link and
// per-host overrides for loss, latency, jitter, partitions, host
// crashes, and stream-level corruption/truncation. The engine exists so
// chaos scenarios (internal/chaos) can reproduce the failure modes the
// paper's attacks hinge on — peers vanishing mid-segment, polluted
// bytes in flight, a browned-out CDN — while the zero state stays an
// exact no-op: until the first impairment is installed every hook is a
// single atomic load, so the parity gates (Tables I–IV byte-identity)
// hold with the engine present but disabled.
//
// All randomness (per-link loss decisions, jitter draws, corruption
// positions) comes from one seeded source derived from Config.Seed, so
// a run is reproducible given the same seed and traffic order.

// impairSeedMix decorrelates the impairment RNG stream from the global
// UDP-loss stream that shares Config.Seed.
const impairSeedMix int64 = 0x5e3779b97f4a7c15

// linkKey identifies a directed host pair (sender → receiver) by the
// hosts' own addresses (private addresses for NATed hosts).
type linkKey struct{ from, to netip.Addr }

// corruptRule mangles stream chunks sent by one host.
type corruptRule struct {
	prob     float64
	truncate bool
}

// impairments holds all installed overrides. The zero value (no maps,
// active=false) impairs nothing.
type impairments struct {
	active atomic.Bool // set once the first override is installed

	mu          sync.Mutex
	rng         *rand.Rand
	linkLoss    map[linkKey]float64
	linkLatency map[linkKey]time.Duration
	linkJitter  map[linkKey]time.Duration
	blocked     map[linkKey]bool
	isolated    map[netip.Addr]bool
	corrupt     map[netip.Addr]corruptRule
}

// ensureLocked lazily allocates the override maps. Caller holds imp.mu.
func (imp *impairments) ensureLocked(seed int64) {
	if imp.rng == nil {
		imp.rng = rand.New(rand.NewSource(seed ^ impairSeedMix))
		imp.linkLoss = make(map[linkKey]float64)
		imp.linkLatency = make(map[linkKey]time.Duration)
		imp.linkJitter = make(map[linkKey]time.Duration)
		imp.blocked = make(map[linkKey]bool)
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

// SetLinkLoss installs a loss probability for datagrams sent from one
// host address to another, overriding the network-wide LossProb for
// that direction. p must be in [0,1]; p=1 drops everything, p=0
// restores reliability for the link regardless of the global setting.
func (n *Network) SetLinkLoss(from, to netip.Addr, p float64) {
	if !(p >= 0 && p <= 1) { // also rejects NaN
		panic(fmt.Sprintf("netsim: SetLinkLoss probability %v outside [0,1]", p))
	}
	n.install(func(imp *impairments) { imp.linkLoss[linkKey{from, to}] = p })
}

// SetLinkLatency adds extra one-way latency to traffic sent from one
// host address to another, on top of the hosts' access latencies.
func (n *Network) SetLinkLatency(from, to netip.Addr, d time.Duration) {
	n.install(func(imp *impairments) { imp.linkLatency[linkKey{from, to}] = d })
}

// SetLinkJitter adds a uniformly-drawn extra delay in [0,max) to each
// transmission from one host address to another. Draws come from the
// engine's seeded RNG.
func (n *Network) SetLinkJitter(from, to netip.Addr, max time.Duration) {
	if max < 0 {
		panic(fmt.Sprintf("netsim: SetLinkJitter negative bound %v", max))
	}
	n.install(func(imp *impairments) { imp.linkJitter[linkKey{from, to}] = max })
}

// ClearLink removes all loss/latency/jitter overrides for the directed
// pair.
func (n *Network) ClearLink(from, to netip.Addr) {
	n.install(func(imp *impairments) {
		key := linkKey{from, to}
		delete(imp.linkLoss, key)
		delete(imp.linkLatency, key)
		delete(imp.linkJitter, key)
	})
}

// Partition blocks all traffic between two host addresses, in both
// directions, and severs established streams between them. New dials
// fail with ErrUnreachable and datagrams are silently dropped, exactly
// as a routing blackhole behaves; severing stands in for the
// keepalive/RST death a real long partition inflicts on TCP.
func (n *Network) Partition(a, b netip.Addr) {
	n.install(func(imp *impairments) {
		imp.blocked[linkKey{a, b}] = true
		imp.blocked[linkKey{b, a}] = true
	})
	n.severConns(func(x, y *Host) bool {
		return (x.ip == a && y.ip == b) || (x.ip == b && y.ip == a)
	})
}

// Heal removes a Partition between two host addresses.
func (n *Network) Heal(a, b netip.Addr) {
	n.install(func(imp *impairments) {
		delete(imp.blocked, linkKey{a, b})
		delete(imp.blocked, linkKey{b, a})
	})
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
// cut by a partition or isolation.
func (n *Network) blockedPath(from, to netip.Addr) bool {
	imp := &n.imp
	if !imp.active.Load() {
		return false
	}
	imp.mu.Lock()
	defer imp.mu.Unlock()
	if imp.blocked == nil {
		return false
	}
	return imp.blocked[linkKey{from, to}] || imp.isolated[from] || imp.isolated[to]
}

// dropImpaired decides link-override loss for a datagram. The second
// return reports whether an override exists (otherwise the caller falls
// back to the global LossProb).
func (n *Network) dropImpaired(from, to netip.Addr) (drop, overridden bool) {
	imp := &n.imp
	if !imp.active.Load() {
		return false, false
	}
	imp.mu.Lock()
	defer imp.mu.Unlock()
	if imp.linkLoss == nil {
		return false, false
	}
	p, ok := imp.linkLoss[linkKey{from, to}]
	if !ok {
		return false, false
	}
	return imp.rng.Float64() < p, true
}

// extraLatency returns the installed fixed-plus-jitter delay for a
// directed pair.
func (n *Network) extraLatency(from, to netip.Addr) time.Duration {
	imp := &n.imp
	if !imp.active.Load() {
		return 0
	}
	imp.mu.Lock()
	defer imp.mu.Unlock()
	if imp.linkLatency == nil {
		return 0
	}
	key := linkKey{from, to}
	d := imp.linkLatency[key]
	if j := imp.linkJitter[key]; j > 0 {
		d += time.Duration(imp.rng.Int63n(int64(j)))
	}
	return d
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

// registerConn tracks an established stream endpoint for crash/partition
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
