// Package netsim implements the virtual Internet that all pdnsec
// experiments run on: an in-memory network of hosts with routable
// synthetic addresses, optional NAT boxes between them, TCP-like streams
// (net.Conn / net.Listener, so net/http servers run unmodified), UDP-like
// datagrams (net.PacketConn, carrying the plaintext STUN traffic the
// paper's IP-leak analysis observes), per-host latency and bandwidth
// shaping, byte accounting, and packet-capture taps.
//
// The paper ran peers as Docker containers on a shared bridge and captured
// docker0 with tcpdump; netsim reproduces that observability — every
// datagram and stream chunk can be tapped at the sending and receiving
// host with post-NAT source addresses, which is exactly what a packet
// capture at the receiver would show.
package netsim

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/netip"
	"sync"
	"sync/atomic"
	"time"
)

// Common errors returned by the simulated network.
var (
	ErrRefused     = errors.New("netsim: connection refused")
	ErrUnreachable = errors.New("netsim: host unreachable")
	ErrClosed      = errors.New("netsim: use of closed connection")
	ErrPortInUse   = errors.New("netsim: port already in use")
)

// Proto identifies the transport of a captured packet.
type Proto int

// Transport protocols observable in captures.
const (
	ProtoUDP Proto = iota + 1
	ProtoTCP
)

// String returns the conventional lowercase protocol name.
func (p Proto) String() string {
	switch p {
	case ProtoUDP:
		return "udp"
	case ProtoTCP:
		return "tcp"
	default:
		return fmt.Sprintf("Proto(%d)", int(p))
	}
}

// Direction tells whether a captured packet was sent or received by the
// tapped host.
type Direction int

// Capture directions.
const (
	DirOut Direction = iota + 1
	DirIn
)

// String returns "out" or "in".
func (d Direction) String() string {
	if d == DirOut {
		return "out"
	}
	return "in"
}

// Packet is one captured transmission unit: a UDP datagram or a TCP
// stream chunk. Src and Dst are the addresses visible at the tap point
// (post-NAT at the receiver).
type Packet struct {
	Proto   Proto
	Dir     Direction
	Src     netip.AddrPort
	Dst     netip.AddrPort
	Payload []byte
}

// Tap receives a copy of every packet crossing the tapped host.
// Taps must not block for long; they run on the sender's goroutine.
type Tap func(Packet)

// Config holds network-wide defaults. The zero value means an ideal
// network: no latency, unlimited bandwidth, no loss.
type Config struct {
	// DefaultLatency is the one-way access latency added at each host;
	// the path latency between two hosts is the sum of their access
	// latencies.
	DefaultLatency time.Duration
	// LossProb is the probability in [0,1) that a UDP datagram is
	// silently dropped in transit. Streams are never lossy.
	LossProb float64
	// Seed drives the loss process; captures and routing are
	// deterministic regardless.
	Seed int64
}

// Network is the root object: a set of hosts and NAT boxes sharing one
// address space.
type Network struct {
	cfg Config

	mu    sync.RWMutex
	hosts map[netip.Addr]*Host
	nats  map[netip.Addr]*NAT

	lossMu sync.Mutex
	rng    *rand.Rand

	// imp is the programmable impairment engine (impair.go). Its zero
	// value impairs nothing and costs one atomic load per hook.
	imp impairments

	punchMu      sync.Mutex
	punchWaiters map[[2]netip.AddrPort]*punchWaiter

	now func() time.Time // injectable clock for tests
}

// Now reads the network's clock. Components running on the simulated
// network (and observability layered over them) stamp time through this
// accessor so a test-injected clock governs everything consistently.
func (n *Network) Now() time.Time { return n.now() }

// punchWaiter is one side of a pending hole-punch rendezvous.
type punchWaiter struct {
	host  *Host
	local netip.AddrPort
	ch    chan *Conn
}

// Punch materializes the data flow for an ICE-nominated candidate pair:
// both peers call Punch with their own (local) and the peer's (remote)
// nominated candidate addresses, and each receives one side of a
// connected stream whose visible endpoints are those candidates. Punch
// must only be called after connectivity checks succeeded — it performs
// no NAT validation itself (the checks already did, over real simulated
// NAT).
func (n *Network) Punch(ctx context.Context, host *Host, local, remote netip.AddrPort) (*Conn, error) {
	key := punchKey(local, remote)
	n.punchMu.Lock()
	if n.punchWaiters == nil {
		n.punchWaiters = make(map[[2]netip.AddrPort]*punchWaiter)
	}
	if w, ok := n.punchWaiters[key]; ok && w.local == remote {
		delete(n.punchWaiters, key)
		n.punchMu.Unlock()
		mine, theirs := Pair(host, w.host, local, remote)
		select {
		case w.ch <- theirs:
			return mine, nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	w := &punchWaiter{host: host, local: local, ch: make(chan *Conn)}
	n.punchWaiters[key] = w
	n.punchMu.Unlock()

	select {
	case c := <-w.ch:
		return c, nil
	case <-ctx.Done():
		n.punchMu.Lock()
		if n.punchWaiters[key] == w {
			delete(n.punchWaiters, key)
		}
		n.punchMu.Unlock()
		return nil, ctx.Err()
	}
}

func punchKey(a, b netip.AddrPort) [2]netip.AddrPort {
	if b.Addr().Less(a.Addr()) || (b.Addr() == a.Addr() && b.Port() < a.Port()) {
		a, b = b, a
	}
	return [2]netip.AddrPort{a, b}
}

// New creates an empty network with the given configuration. It panics
// if LossProb is outside [0,1) — a misconfigured loss process would
// silently skew every experiment built on the network.
func New(cfg Config) *Network {
	if !(cfg.LossProb >= 0 && cfg.LossProb < 1) { // also rejects NaN
		panic(fmt.Sprintf("netsim: Config.LossProb %v outside [0,1)", cfg.LossProb))
	}
	return &Network{
		cfg:   cfg,
		hosts: make(map[netip.Addr]*Host),
		nats:  make(map[netip.Addr]*NAT),
		rng:   rand.New(rand.NewSource(cfg.Seed)),
		now:   time.Now,
	}
}

// NewHost registers a public host with the given address. It returns an
// error if the address is already taken.
func (n *Network) NewHost(ip netip.Addr) (*Host, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if _, ok := n.hosts[ip]; ok {
		return nil, fmt.Errorf("netsim: host %v already exists", ip)
	}
	if _, ok := n.nats[ip]; ok {
		return nil, fmt.Errorf("netsim: address %v belongs to a NAT", ip)
	}
	h := newHost(n, ip, nil)
	n.hosts[ip] = h
	return h, nil
}

// MustHost is NewHost that panics on error, for test and experiment setup
// where a duplicate address is a programming bug.
func (n *Network) MustHost(ip netip.Addr) *Host {
	h, err := n.NewHost(ip)
	if err != nil {
		panic(err)
	}
	return h
}

// Host returns the registered host for ip, or nil.
func (n *Network) Host(ip netip.Addr) *Host {
	n.mu.RLock()
	defer n.mu.RUnlock()
	return n.hosts[ip]
}

// dropUDP decides whether to drop a datagram according to LossProb.
func (n *Network) dropUDP() bool {
	if n.cfg.LossProb <= 0 {
		return false
	}
	n.lossMu.Lock()
	defer n.lossMu.Unlock()
	return n.rng.Float64() < n.cfg.LossProb
}

// lookupUDP resolves a visible destination address to the concrete host
// socket that should receive the datagram, translating NAT if needed.
// sender scopes private addressing: a host behind a NAT is directly
// addressable only from hosts behind the same NAT; everyone else must
// come through the NAT's external address.
func (n *Network) lookupUDP(sender *Host, from netip.AddrPort, dst netip.AddrPort) (*Host, uint16, bool) {
	n.mu.RLock()
	nat := n.nats[dst.Addr()]
	host := n.hosts[dst.Addr()]
	n.mu.RUnlock()
	if nat != nil {
		internal, ok := nat.translateInbound(from, dst.Port(), ProtoUDP)
		if !ok {
			return nil, 0, false
		}
		n.mu.RLock()
		host = n.hosts[internal.Addr()]
		n.mu.RUnlock()
		if host == nil {
			return nil, 0, false
		}
		return host, internal.Port(), true
	}
	if host == nil {
		return nil, 0, false
	}
	if host.nat != nil && (sender == nil || sender.nat != host.nat) {
		return nil, 0, false // private address not visible from outside its NAT
	}
	return host, dst.Port(), true
}

// lookupTCP resolves a dial destination, translating NAT port forwards.
// PDN experiments only dial public services (CDN, signaling, proxies), so
// inbound TCP through NAT requires an explicit Forward on the NAT.
func (n *Network) lookupTCP(sender *Host, dst netip.AddrPort) (*Host, uint16, bool) {
	n.mu.RLock()
	nat := n.nats[dst.Addr()]
	host := n.hosts[dst.Addr()]
	n.mu.RUnlock()
	if nat != nil {
		internal, ok := nat.forwardLookup(dst.Port())
		if !ok {
			return nil, 0, false
		}
		n.mu.RLock()
		host = n.hosts[internal.Addr()]
		n.mu.RUnlock()
		if host == nil {
			return nil, 0, false
		}
		return host, internal.Port(), true
	}
	if host == nil {
		return nil, 0, false
	}
	if host.nat != nil && (sender == nil || sender.nat != host.nat) {
		return nil, 0, false // private address not visible from outside its NAT
	}
	return host, dst.Port(), true
}

// Host is one endpoint on the simulated network. A host has exactly one
// address; hosts constructed via NAT.NewHost carry a private address and
// all their traffic is translated at the NAT.
type Host struct {
	net *Network
	ip  netip.Addr
	nat *NAT // nil for public hosts

	// Shaping. Zero values inherit network defaults / mean unlimited.
	latency  time.Duration
	upRate   int64 // bytes/sec, 0 = unlimited
	downRate int64

	mu        sync.Mutex
	listeners map[uint16]*Listener
	udpSocks  map[uint16]*packetConn
	conns     map[*Conn]struct{} // established stream endpoints, for crash/isolation severing
	nextPort  uint16
	taps      []Tap
	closed    bool

	upGate   rateGate
	downGate rateGate

	bytesUp   atomic.Int64
	bytesDown atomic.Int64
}

func newHost(n *Network, ip netip.Addr, nat *NAT) *Host {
	return &Host{
		net:       n,
		ip:        ip,
		nat:       nat,
		latency:   n.cfg.DefaultLatency,
		listeners: make(map[uint16]*Listener),
		udpSocks:  make(map[uint16]*packetConn),
		nextPort:  32768,
	}
}

// Addr returns the host's own address (private if behind NAT).
func (h *Host) Addr() netip.Addr { return h.ip }

// Behind reports the NAT this host sits behind, or nil.
func (h *Host) Behind() *NAT { return h.nat }

// VisibleAddr returns the address other public hosts see traffic from:
// the NAT's external address for NATed hosts, the host address otherwise.
func (h *Host) VisibleAddr() netip.Addr {
	if h.nat != nil {
		return h.nat.extIP
	}
	return h.ip
}

// SetLatency sets the host's one-way access latency.
func (h *Host) SetLatency(d time.Duration) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.latency = d
}

// SetRates limits the host's upload and download bandwidth in bytes per
// second; zero means unlimited.
func (h *Host) SetRates(up, down int64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.upRate = up
	h.downRate = down
}

// AddTap registers a capture tap on this host.
func (h *Host) AddTap(t Tap) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.taps = append(h.taps, t)
}

// BytesUp returns the total bytes this host has transmitted.
func (h *Host) BytesUp() int64 { return h.bytesUp.Load() }

// BytesDown returns the total bytes this host has received.
func (h *Host) BytesDown() int64 { return h.bytesDown.Load() }

// tap delivers a capture copy to every registered tap.
func (h *Host) tap(p Packet) {
	h.mu.Lock()
	taps := h.taps
	h.mu.Unlock()
	if len(taps) == 0 {
		return
	}
	cp := p
	cp.Payload = append([]byte(nil), p.Payload...)
	for _, t := range taps {
		t(cp)
	}
}

func (h *Host) pathLatency(other *Host) time.Duration {
	h.mu.Lock()
	a := h.latency
	h.mu.Unlock()
	if other == nil {
		return a
	}
	other.mu.Lock()
	b := other.latency
	other.mu.Unlock()
	return a + b
}

// allocPortLocked returns a free ephemeral port. Caller holds h.mu.
func (h *Host) allocPortLocked(proto Proto) (uint16, error) {
	for i := 0; i < 65536; i++ {
		p := h.nextPort
		h.nextPort++
		if h.nextPort == 0 {
			h.nextPort = 32768
		}
		if p < 1024 {
			continue
		}
		switch proto {
		case ProtoTCP:
			if _, used := h.listeners[p]; !used {
				return p, nil
			}
		case ProtoUDP:
			if _, used := h.udpSocks[p]; !used {
				return p, nil
			}
		}
	}
	return 0, errors.New("netsim: ephemeral ports exhausted")
}

// rateGate serializes transmissions against a byte-per-second budget.
type rateGate struct {
	mu   sync.Mutex
	next time.Time
}

// wait blocks until n bytes may pass at the given rate, and returns
// immediately for rate<=0. The clock is injected so shaped timestamps
// follow the network's (possibly test-controlled) time source.
func (g *rateGate) wait(n int, rate int64, clock func() time.Time) {
	if rate <= 0 || n <= 0 {
		return
	}
	dur := time.Duration(float64(n) / float64(rate) * float64(time.Second))
	g.mu.Lock()
	now := clock()
	start := g.next
	if start.Before(now) {
		start = now
	}
	g.next = start.Add(dur)
	wait := g.next.Sub(now)
	g.mu.Unlock()
	if wait > 0 {
		time.Sleep(wait)
	}
}

func (h *Host) shapeUp(n int) {
	h.mu.Lock()
	rate := h.upRate
	h.mu.Unlock()
	h.upGate.wait(n, rate, h.net.now)
	h.bytesUp.Add(int64(n))
}

func (h *Host) shapeDown(n int) {
	h.mu.Lock()
	rate := h.downRate
	h.mu.Unlock()
	h.downGate.wait(n, rate, h.net.now)
	h.bytesDown.Add(int64(n))
}

// Dialer returns a DialContext-compatible function routing through this
// host, suitable for http.Transport.
func (h *Host) Dialer() func(ctx context.Context, network, address string) (net.Conn, error) {
	return func(ctx context.Context, network, address string) (net.Conn, error) {
		ap, err := netip.ParseAddrPort(address)
		if err != nil {
			return nil, fmt.Errorf("netsim: dial %s: %w", address, err)
		}
		return h.Dial(ctx, ap)
	}
}

// HTTPClient returns an *http.Client whose transport dials over the
// simulated network from this host.
func (h *Host) HTTPClient() *HTTPClientShim { return &HTTPClientShim{host: h} }

// HTTPClientShim is a tiny indirection so that packages needing an
// http.Client construct it themselves from Dialer(); keeping net/http out
// of netsim's API avoids an import cycle with capture helpers.
type HTTPClientShim struct{ host *Host }

// DialContext implements the single method http.Transport needs.
func (s *HTTPClientShim) DialContext(ctx context.Context, network, address string) (net.Conn, error) {
	return s.host.Dialer()(ctx, network, address)
}
