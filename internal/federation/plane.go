package federation

import (
	"fmt"
	"net/netip"
	"sync"

	"github.com/stealthy-peers/pdnsec/internal/netsim"
	"github.com/stealthy-peers/pdnsec/internal/obs"
	"github.com/stealthy-peers/pdnsec/internal/signal"
)

// PlaneConfig parameterizes a federated signaling plane.
type PlaneConfig struct {
	// Servers is the number of signal.Server instances (default 1 — the
	// single-server deployment every earlier PR ran).
	Servers int
	// Vnodes is the ring's virtual-node count per server
	// (DefaultVnodes when zero).
	Vnodes int
	// Base is the per-server configuration template. ServerName and
	// Router are owned by the plane and overwritten; everything else
	// (auth, policy, seed, shards, obs, tracer) is shared verbatim, so
	// a swarm's matching sequence depends only on (Seed, swarm ID) —
	// never on which server owns it. That seed discipline is what makes
	// 1-server and 4-server planes observably identical.
	Base signal.Config
	// Traces, when set, gives each server its own process-stamped tracer
	// from the set (keyed by server name), overriding Base.Tracer. This
	// is what makes a federated trace attributable: without it every
	// server would write spans into one shared tracer and pdntrace could
	// not tell ingress from owner.
	Traces *obs.TraceSet
}

// planeMember is one server slot in the plane.
type planeMember struct {
	name string
	srv  *signal.Server
	addr netip.AddrPort
	live bool
}

// Plane is a set of federated signal.Servers sharing one consistent-
// hash ring. Each server sees the ring through its own Router view, so
// a join landing anywhere is redirected to the swarm's owner. With
// Servers=1 the ring has one arc and every route is local: the
// single-server path is this same code, not a bypass.
type Plane struct {
	ring *Ring

	mu      sync.Mutex
	members []*planeMember
}

// memberRouter is one server's view of the plane's ring.
type memberRouter struct {
	p    *Plane
	self string
}

// Route implements signal.Router.
func (r *memberRouter) Route(swarmID string) signal.Route {
	name, addr, ok := r.p.ring.Owner(swarmID)
	if !ok || name == r.self {
		return signal.Route{Server: r.self, Local: true}
	}
	return signal.Route{Server: name, Addr: addr}
}

// Servers implements signal.Router.
func (r *memberRouter) Servers() []netip.AddrPort { return r.p.ring.Addrs() }

// NewPlane builds the plane's servers (delivery pipelines started, not
// yet listening — call Serve). Server i is named "s<i>"; with one
// server the signal ServerName is left empty so peer IDs keep the
// seed-era "pN" format.
func NewPlane(cfg PlaneConfig) *Plane {
	n := cfg.Servers
	if n <= 0 {
		n = 1
	}
	p := &Plane{ring: NewRing(cfg.Vnodes)}
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("s%d", i)
		sc := cfg.Base
		if n > 1 {
			sc.ServerName = name
		}
		sc.Router = &memberRouter{p: p, self: name}
		if cfg.Traces != nil {
			sc.Tracer = cfg.Traces.Tracer(name)
		}
		p.members = append(p.members, &planeMember{name: name, srv: signal.NewServer(sc)})
	}
	return p
}

// Serve binds server i to hosts[i] on the given port and places it on
// the ring. Exactly one host per server.
func (p *Plane) Serve(hosts []*netsim.Host, port uint16) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(hosts) != len(p.members) {
		return fmt.Errorf("federation: %d hosts for %d servers", len(hosts), len(p.members))
	}
	for i, m := range p.members {
		if err := m.srv.Serve(hosts[i], port); err != nil {
			return fmt.Errorf("federation: serve %s: %w", m.name, err)
		}
		m.addr = netip.AddrPortFrom(hosts[i].VisibleAddr(), port)
		m.live = true
		p.ring.Add(m.name, m.addr)
	}
	return nil
}

// N reports the plane's server-slot count (live or failed).
func (p *Plane) N() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.members)
}

// Server returns server i (nil when out of range). Failed servers are
// still returned; check the ring for liveness.
func (p *Plane) Server(i int) *signal.Server {
	p.mu.Lock()
	defer p.mu.Unlock()
	if i < 0 || i >= len(p.members) {
		return nil
	}
	return p.members[i].srv
}

// Addr returns server i's signaling address (zero before Serve).
func (p *Plane) Addr(i int) netip.AddrPort {
	p.mu.Lock()
	defer p.mu.Unlock()
	if i < 0 || i >= len(p.members) {
		return netip.AddrPort{}
	}
	return p.members[i].addr
}

// Addrs returns the live servers' addresses — the seed list clients
// bootstrap from.
func (p *Plane) Addrs() []netip.AddrPort { return p.ring.Addrs() }

// Ring exposes the ownership ring (tests, monitoring).
func (p *Plane) Ring() *Ring { return p.ring }

// Owner returns the name of the server owning the given swarm.
func (p *Plane) Owner(swarmID string) string {
	name, _, _ := p.ring.Owner(swarmID)
	return name
}

// PeerCount sums connected peers across live servers.
func (p *Plane) PeerCount() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	total := 0
	for _, m := range p.members {
		if m.live {
			total += m.srv.PeerCount()
		}
	}
	return total
}

// Fail simulates server i crashing: it leaves the ring first (so
// routers stop sending peers there) and then shuts down, severing its
// sessions. Its swarms' arcs fall to the ring's survivors; stranded
// peers re-bootstrap through the peerstore and land on the new owners.
func (p *Plane) Fail(i int) error {
	p.mu.Lock()
	if i < 0 || i >= len(p.members) {
		p.mu.Unlock()
		return fmt.Errorf("federation: no server %d", i)
	}
	m := p.members[i]
	if !m.live {
		p.mu.Unlock()
		return nil
	}
	m.live = false
	p.mu.Unlock()
	p.ring.Remove(m.name)
	return m.srv.Close()
}

// Close shuts down every live server.
func (p *Plane) Close() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	var firstErr error
	for _, m := range p.members {
		if !m.live {
			continue
		}
		m.live = false
		p.ring.Remove(m.name)
		if err := m.srv.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}
