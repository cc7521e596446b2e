// Package ice implements Interactive Connectivity Establishment for the
// pdnsec testbed: candidate gathering (host and server-reflexive via
// STUN), connectivity checks over the simulated network's real NAT
// behaviour, and nomination of a working candidate pair.
//
// This layer is where the paper's IP-leak risk materializes: to connect
// two viewers, each one's addresses — including the public address
// discovered via STUN — are shared with the other through the PDN
// server, and connectivity-check datagrams carrying those addresses
// cross the network in plaintext. A malicious peer needs nothing more
// than its own capture to harvest every candidate it is offered
// (§IV-D). The bogon addresses the paper observed (private, shared-NAT,
// reserved) arise here too: host candidates of NATed viewers are private
// addresses, and they are advertised regardless of whether traversal
// will succeed.
package ice

import (
	"context"
	"errors"
	"fmt"
	"net/netip"
	"sort"
	"sync"
	"time"

	"github.com/stealthy-peers/pdnsec/internal/netsim"
	"github.com/stealthy-peers/pdnsec/internal/stun"
)

// Candidate types.
const (
	TypeHost  = "host"
	TypeSrflx = "srflx"
)

// Type preferences per RFC 8445 §5.1.2.2.
const (
	prefHost  = 126
	prefSrflx = 100
)

// Candidate is one transport address a peer advertises.
type Candidate struct {
	Type     string         `json:"type"`
	Addr     netip.AddrPort `json:"addr"`
	Priority uint32         `json:"priority"`
}

// Retransmission intervals. A request or its answer can be lost, and a
// request to an address-restricted NAT is dropped until the far side has
// sent its own, so both are repeated until answered.
const (
	queryInterval = 100 * time.Millisecond // srflx query to the STUN server
	checkInterval = 50 * time.Millisecond  // connectivity checks; also the nomination tick
)

// Errors returned by the agent.
var (
	ErrNoCandidates = errors.New("ice: no remote candidates")
	ErrCheckFailed  = errors.New("ice: all connectivity checks failed")
)

// Agent runs ICE for one peer over a single UDP socket.
type Agent struct {
	host *netsim.Host
	pc   *netsim.PacketConn

	ufrag string

	mu        sync.Mutex
	locals    []Candidate
	queries   map[stun.TxID]chan netip.AddrPort // srflx queries awaiting a mapped address
	pending   map[stun.TxID]netip.AddrPort      // in-flight checks by tx
	succeeded map[netip.AddrPort]bool           // remote candidates that answered

	// answered holds one token while a success the running Check has not
	// looked at yet is recorded in succeeded.
	answered chan struct{}
	loopOnce sync.Once
}

// NewAgent binds an ICE socket on the host.
func NewAgent(host *netsim.Host, ufrag string) (*Agent, error) {
	pc, err := host.ListenPacket(0)
	if err != nil {
		return nil, fmt.Errorf("ice: bind: %w", err)
	}
	return &Agent{
		host:      host,
		pc:        pc,
		ufrag:     ufrag,
		queries:   make(map[stun.TxID]chan netip.AddrPort),
		pending:   make(map[stun.TxID]netip.AddrPort),
		succeeded: make(map[netip.AddrPort]bool),
		answered:  make(chan struct{}, 1),
	}, nil
}

// Close releases the agent's socket, which ends its read loop (blocked
// in a read) and fails a running Check at its next retransmission.
func (a *Agent) Close() error { return a.pc.Close() }

// Gather collects this agent's candidates: the host candidate (the
// socket's own, possibly private, address) and — when a STUN server is
// provided — the server-reflexive candidate carrying the peer's public
// (post-NAT) address.
func (a *Agent) Gather(ctx context.Context, stunServer netip.AddrPort) ([]Candidate, error) {
	a.startLoop()
	cands := []Candidate{{
		Type:     TypeHost,
		Addr:     a.pc.LocalAddrPort(),
		Priority: priority(prefHost, 1),
	}}
	if stunServer.IsValid() {
		mapped, err := a.querySTUN(ctx, stunServer)
		if err != nil {
			return nil, fmt.Errorf("ice: srflx discovery: %w", err)
		}
		if mapped != cands[0].Addr {
			cands = append(cands, Candidate{
				Type:     TypeSrflx,
				Addr:     mapped,
				Priority: priority(prefSrflx, 1),
			})
		}
	}
	a.mu.Lock()
	a.locals = append([]Candidate(nil), cands...)
	a.mu.Unlock()
	return cands, nil
}

// querySTUN asks the STUN server for this socket's reflexive address.
func (a *Agent) querySTUN(ctx context.Context, server netip.AddrPort) (netip.AddrPort, error) {
	req := stun.BindingRequest("", 0)
	respCh := make(chan netip.AddrPort, 1)
	a.mu.Lock()
	a.queries[req.Tx] = respCh
	a.mu.Unlock()
	defer func() {
		a.mu.Lock()
		delete(a.queries, req.Tx)
		a.mu.Unlock()
	}()

	deadline := time.Now().Add(5 * time.Second)
	if d, ok := ctx.Deadline(); ok && d.Before(deadline) {
		deadline = d
	}
	wire := req.Encode()
	retry := time.NewTicker(queryInterval)
	defer retry.Stop()
	for attempt := 0; attempt < 5; attempt++ {
		if _, err := a.pc.WriteToAddrPort(wire, server); err != nil {
			return netip.AddrPort{}, err
		}
		select {
		case ap := <-respCh:
			return ap, nil
		case <-retry.C:
		case <-ctx.Done():
			return netip.AddrPort{}, ctx.Err()
		}
		if time.Now().After(deadline) {
			break
		}
	}
	return netip.AddrPort{}, errors.New("ice: STUN server timeout")
}

// startLoop launches the agent's receive loop once.
func (a *Agent) startLoop() {
	a.loopOnce.Do(func() {
		go a.readLoop()
	})
}

// readLoop answers inbound binding requests (reflecting the sender's
// visible address — the leak) and dispatches binding responses. It
// blocks in the read until Close; a datagram longer than the buffer is
// cut short and fails to decode.
func (a *Agent) readLoop() {
	buf := make([]byte, stun.MaxMessageSize)
	for {
		n, from, err := a.pc.ReadFromAddrPort(buf)
		if err != nil {
			return // closed: the agent arms no read deadline
		}
		msg, err := stun.Decode(buf[:n])
		if err != nil {
			continue
		}
		switch msg.Type {
		case stun.TypeBindingRequest:
			resp := stun.BindingSuccess(msg.Tx, from)
			a.pc.WriteToAddrPort(resp.Encode(), from)
		case stun.TypeBindingSuccess:
			a.mu.Lock()
			query := a.queries[msg.Tx]
			remote, checked := a.pending[msg.Tx]
			if checked {
				delete(a.pending, msg.Tx)
				a.succeeded[remote] = true
			}
			a.mu.Unlock()
			switch {
			case query != nil:
				select {
				case query <- msg.XORMappedAddress:
				default:
				}
			case checked:
				// Recorded before signalled, so the Check that takes the
				// token always finds the answer it stands for.
				select {
				case a.answered <- struct{}{}:
				default:
				}
			}
		}
	}
}

// Check runs connectivity checks against the remote candidates and
// returns the highest-priority remote candidate that answered. Both
// peers must run Check concurrently (as real agents do) so that their
// outbound packets open the NAT mappings the other side's checks need;
// one agent runs one Check at a time.
//
// Every checkInterval the requests go out again — that is what punches
// an address-restricted NAT, whose mapping opens only once the far side
// has sent — and the end of each interval nominates the best candidate
// that has answered by then. A candidate nothing outranks cannot lose
// that comparison, so its answer ends the check at once instead of at
// the interval's end; any other answer waits, because a better
// candidate may still answer within the interval.
func (a *Agent) Check(ctx context.Context, remotes []Candidate) (Candidate, error) {
	if len(remotes) == 0 {
		return Candidate{}, ErrNoCandidates
	}
	a.startLoop()

	ordered := append([]Candidate(nil), remotes...)
	sort.Slice(ordered, func(i, j int) bool { return ordered[i].Priority > ordered[j].Priority })

	deadline := time.Now().Add(3 * time.Second)
	if d, ok := ctx.Deadline(); ok && d.Before(deadline) {
		deadline = d
	}
	var sent []stun.TxID
	defer func() {
		a.mu.Lock()
		for _, tx := range sent {
			delete(a.pending, tx)
		}
		a.mu.Unlock()
	}()
	retransmit := time.NewTicker(checkInterval)
	defer retransmit.Stop()
	for time.Now().Before(deadline) {
		for _, rc := range ordered {
			req := stun.BindingRequest(a.ufrag, rc.Priority)
			a.mu.Lock()
			a.pending[req.Tx] = rc.Addr
			a.mu.Unlock()
			sent = append(sent, req.Tx)
			if _, err := a.pc.WriteToAddrPort(req.Encode(), rc.Addr); errors.Is(err, netsim.ErrClosed) {
				return Candidate{}, ErrCheckFailed
			}
		}
		for ticked := false; !ticked; {
			among := ordered[:1] // within the interval only the top candidate settles it
			select {
			case <-a.answered:
			case <-retransmit.C:
				ticked, among = true, ordered
			case <-ctx.Done():
				return Candidate{}, ctx.Err()
			}
			if best, ok := a.bestAnswered(among); ok {
				return best, nil
			}
		}
	}
	return Candidate{}, ErrCheckFailed
}

// bestAnswered returns the first of the priority-ordered candidates
// that has answered a check.
func (a *Agent) bestAnswered(ordered []Candidate) (Candidate, bool) {
	a.mu.Lock()
	defer a.mu.Unlock()
	for _, c := range ordered {
		if a.succeeded[c.Addr] {
			return c, true
		}
	}
	return Candidate{}, false
}

// LocalAddr returns the agent's bound socket address.
func (a *Agent) LocalAddr() netip.AddrPort { return a.pc.LocalAddrPort() }

// LocalCandidateFor returns this agent's own candidate whose address the
// remote peer would have reached when answering checks: the srflx
// candidate if one was gathered, else the host candidate.
func (a *Agent) LocalCandidateFor() Candidate {
	a.mu.Lock()
	defer a.mu.Unlock()
	var host, srflx *Candidate
	for i := range a.locals {
		switch a.locals[i].Type {
		case TypeHost:
			host = &a.locals[i]
		case TypeSrflx:
			srflx = &a.locals[i]
		}
	}
	if srflx != nil {
		return *srflx
	}
	if host != nil {
		return *host
	}
	return Candidate{Type: TypeHost, Addr: a.pc.LocalAddrPort(), Priority: priority(prefHost, 1)}
}

// priority computes the RFC 8445 candidate priority.
func priority(typePref, componentID uint32) uint32 {
	return typePref<<24 | 0xffff<<8 | (256 - componentID)
}

// ServeSTUN runs a minimal STUN binding server on pc until the context
// is cancelled or pc is closed; it reflects each request's observed
// source address. It blocks in the read: cancellation burns pc's read
// deadline to wake it, so pc is of no further use to the caller.
func ServeSTUN(ctx context.Context, pc *netsim.PacketConn) {
	stop := context.AfterFunc(ctx, func() { pc.SetReadDeadline(time.Unix(1, 0)) })
	defer stop()
	buf := make([]byte, stun.MaxMessageSize)
	for {
		n, from, err := pc.ReadFromAddrPort(buf)
		if err != nil {
			return
		}
		msg, err := stun.Decode(buf[:n])
		if err != nil || msg.Type != stun.TypeBindingRequest {
			continue
		}
		pc.WriteToAddrPort(stun.BindingSuccess(msg.Tx, from).Encode(), from)
	}
}
