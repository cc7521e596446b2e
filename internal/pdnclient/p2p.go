package pdnclient

import (
	"context"
	"encoding/json"
	"errors"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/stealthy-peers/pdnsec/internal/defense"
	"github.com/stealthy-peers/pdnsec/internal/dtls"
	"github.com/stealthy-peers/pdnsec/internal/ice"
	"github.com/stealthy-peers/pdnsec/internal/media"
	"github.com/stealthy-peers/pdnsec/internal/obs"
	"github.com/stealthy-peers/pdnsec/internal/secure"
	"github.com/stealthy-peers/pdnsec/internal/signal"
)

// connectTimeout bounds one P2P connection establishment.
const connectTimeout = 5 * time.Second

// requestTimeout bounds one segment request to a neighbor.
const requestTimeout = 5 * time.Second

// p2pMsg is the datachannel message header. Segment payload bytes
// follow the header's JSON encoding after a NUL separator.
type p2pMsg struct {
	Op    string           `json:"op"` // "want" | "segment"
	Key   media.SegmentKey `json:"key"`
	Found bool             `json:"found,omitempty"`
	// Trace carries the requester's encoded obs.TraceContext on "want"
	// frames, so the serving peer's p2p_serve span stitches into the
	// requester's segment trace. Opaque identifiers only — never
	// addresses (pdnlint peertaint treats it as a sink).
	Trace string `json:"trace,omitempty"`
}

// nul separates a frame's JSON header from its payload.
var nul = []byte{0}

// encodeMsg frames a header and optional payload.
func encodeMsg(h p2pMsg, payload []byte) ([]byte, error) {
	hdr, err := json.Marshal(h)
	if err != nil {
		return nil, err
	}
	out := make([]byte, 0, len(hdr)+1+len(payload))
	out = append(out, hdr...)
	out = append(out, nul...)
	out = append(out, payload...)
	return out, nil
}

// decodeMsg splits a frame into header and payload.
func decodeMsg(frame []byte) (p2pMsg, []byte, error) {
	var h p2pMsg
	sep := -1
	for i, b := range frame {
		if b == 0 {
			sep = i
			break
		}
	}
	if sep < 0 {
		return h, nil, json.Unmarshal(frame, &h)
	}
	if err := json.Unmarshal(frame[:sep], &h); err != nil {
		return h, nil, err
	}
	return h, frame[sep+1:], nil
}

// p2pConn is the message transport a neighbor runs over: anonymous
// DTLS for the deployed profiles, the authenticated secure channel
// when the policy demands it. Both satisfy it.
type p2pConn interface {
	Send(msg []byte) error
	SendParts(parts ...[]byte) error
	Recv() ([]byte, error)
	Close() error
}

// neighbor is one established P2P connection.
type neighbor struct {
	id   string
	conn p2pConn
	peer *Peer

	reqMu     chan struct{} // capacity-1 semaphore: one outstanding want
	respCh    chan p2pFrame // segment responses
	closedC   chan struct{}
	closeOnce sync.Once   // evict (read loop) and teardown both call close
	evicting  atomic.Bool // latches the first eviction so it counts once
}

type p2pFrame struct {
	hdr     p2pMsg
	payload []byte
}

func newNeighbor(id string, conn p2pConn, p *Peer) *neighbor {
	nb := &neighbor{
		id:      id,
		conn:    conn,
		peer:    p,
		reqMu:   make(chan struct{}, 1),
		respCh:  make(chan p2pFrame, 1),
		closedC: make(chan struct{}),
	}
	nb.reqMu <- struct{}{}
	return nb
}

// close tears the connection down and removes it from the peer.
func (nb *neighbor) close() {
	nb.closeOnce.Do(func() {
		close(nb.closedC)
		nb.conn.Close()
		nb.peer.removeNeighbor(nb.id)
	})
}

// evict closes a neighbor presumed dead — failed send, request
// timeout, or a broken read loop — and counts the eviction unless the
// connection was already closed deliberately or the peer itself is
// shutting down. The next maintainNeighbors pass re-matches a
// replacement, so churned peers stop blocking segment fetches.
func (nb *neighbor) evict(reason string) {
	if !nb.evicting.CompareAndSwap(false, true) {
		return
	}
	select {
	case <-nb.closedC:
		return // closed on purpose (policy drop or teardown): not a death
	default:
	}
	select {
	case <-nb.peer.closed:
	default:
		nb.peer.metrics.neighborsEvicted.Inc()
		nb.peer.cfg.Tracer.Event("neighbor_evict", obs.A("neighbor", nb.id), obs.A("reason", reason))
	}
	nb.close()
}

// readLoop serves inbound requests and routes responses.
func (nb *neighbor) readLoop() {
	defer nb.evict("conn_broken")
	for {
		frame, err := nb.conn.Recv()
		if err != nil {
			return
		}
		hdr, payload, err := decodeMsg(frame)
		if err != nil {
			continue
		}
		switch hdr.Op {
		case "want":
			nb.serve(hdr.Key, hdr.Trace)
		case "segment":
			nb.park(p2pFrame{hdr: hdr, payload: payload})
		}
	}
}

// park leaves a segment frame where request looks for it, displacing
// one still unread: whatever want is outstanding, its answer is the
// newest frame, and request skips the ones that are not.
func (nb *neighbor) park(f p2pFrame) {
	for {
		select {
		case nb.respCh <- f:
			return
		default:
		}
		select {
		case <-nb.respCh:
		default:
		}
	}
}

// serve answers a neighbor's segment request from the local cache,
// honoring the cellular-upload ("leech mode") policy. trace is the
// requester's propagated TraceContext ("" for untraced requesters); the
// serve span it parents is how the *uploading* peer's work appears in
// the downloader's stitched segment trace.
func (nb *neighbor) serve(key media.SegmentKey, trace string) {
	p := nb.peer
	span := p.cfg.Tracer.StartSpanRemote(trace, "p2p_serve",
		obs.A("neighbor", nb.id), obs.A("idx", key.Index))
	pol := &p.session().policy
	resp := p2pMsg{Op: "segment", Key: key}
	var payload []byte
	uploadAllowed := !p.cfg.Cellular || pol.CellularUpload
	if pol.MaxUploadBytes > 0 {
		p.mu.Lock()
		if p.stats.P2PUpBytes >= pol.MaxUploadBytes {
			uploadAllowed = false // §V-C upload budget exhausted
		}
		p.mu.Unlock()
	}
	if up := p.cfg.UploadPolicy; up != nil && !up(key) {
		uploadAllowed = false // behavioral refusal (free-rider/colluder)
	}
	if uploadAllowed && key.Video == p.cfg.Video && key.Rendition == p.cfg.Rendition {
		if data, ok := p.cache.get(key.Index); ok {
			resp.Found = true
			payload = data
			p.metrics.cacheHits.Inc()
		} else {
			p.metrics.cacheMiss.Inc()
		}
	}
	hdr, err := json.Marshal(resp)
	if err != nil {
		span.End(obs.A("found", false))
		return
	}
	// encodeMsg's frame, sent as its parts: the record layer's copy of
	// the cached segment into its own buffer is the only one, so neither
	// the wire nor an in-flight corruption ever aliases the cache.
	err = nb.conn.SendParts(hdr, nul, payload)
	span.End(obs.A("found", resp.Found), obs.A("bytes", len(payload)))
	if err != nil {
		return
	}
	if resp.Found {
		p.mu.Lock()
		p.stats.P2PUpBytes += int64(len(payload))
		p.mu.Unlock()
		p.metrics.p2pUpBytes.Add(int64(len(payload)))
	}
}

// request asks this neighbor for a segment. The exchange runs under a
// p2p_request child span (covering queueing behind the outstanding-want
// semaphore plus the wire round trip), and the want frame carries the
// span's context so the serving peer's p2p_serve span parents under it.
func (nb *neighbor) request(ctx context.Context, key media.SegmentKey) (data []byte, found bool) {
	ctx, span := nb.peer.cfg.Tracer.StartSpan(ctx, "p2p_request",
		obs.A("neighbor", nb.id), obs.A("idx", key.Index))
	defer func() { span.End(obs.A("found", found)) }()
	select {
	case <-nb.reqMu:
	case <-ctx.Done():
		return nil, false
	case <-nb.closedC:
		return nil, false
	}
	defer func() { nb.reqMu <- struct{}{} }()
	// A frame parked while no want was outstanding — sent unprompted, or
	// answering a wait that was cancelled — is not this request's answer.
	select {
	case <-nb.respCh:
	default:
	}

	frame, err := encodeMsg(p2pMsg{Op: "want", Key: key, Trace: obs.ContextString(ctx)}, nil)
	if err != nil {
		return nil, false
	}
	if err := nb.conn.Send(frame); err != nil {
		nb.evict("send_failed")
		return nil, false
	}
	timer := time.NewTimer(requestTimeout)
	defer timer.Stop()
	for {
		select {
		case resp := <-nb.respCh:
			if resp.hdr.Key != key {
				continue // a stale answer that slipped in behind the drain
			}
			if !resp.hdr.Found {
				return nil, false
			}
			return resp.payload, true
		case <-timer.C:
			nb.evict("request_timeout")
			return nil, false
		case <-ctx.Done():
			return nil, false
		case <-nb.closedC:
			// The read loop parks an answer before it can see the hang-up
			// behind it, so both arms can be ready at once: a seeder that
			// answered and then left has still answered.
			select {
			case resp := <-nb.respCh:
				if resp.hdr.Key == key && resp.hdr.Found {
					return resp.payload, true
				}
			default:
			}
			return nil, false
		}
	}
}

// matchBackoffMax caps how many P2P-eligible segments a peer under
// MaxNeighbors lets pass between two asks of the matcher.
const matchBackoffMax = 32

// maintainNeighbors tops up P2P connections from the server's matches,
// once per P2P-eligible segment while the peer is under MaxNeighbors —
// unless asking has stopped paying: an ask that left the peer with no
// more neighbors than before makes it sit out 1, then 3, 7, … up to
// matchBackoffMax segments before the next. The swarm has nobody new,
// and whoever joins it asks at once and connects to this peer. An ask
// that gained a neighbor, the loss of one, or a rejoin puts the peer
// back to asking every segment.
func (p *Peer) maintainNeighbors(ctx context.Context, s *session) {
	limit := s.policy.MaxNeighbors
	p.mu.Lock()
	before := len(p.neighbors)
	wait := before < limit && p.matchWait > 0
	if wait {
		p.matchWait--
	}
	p.mu.Unlock()
	if s.sig == nil || before >= limit || wait {
		return
	}
	peers, err := s.sig.GetPeers(ctx, limit)
	if err != nil {
		return
	}
	for _, info := range peers {
		if p.NeighborCount() < limit {
			// A no-op for a peer that is already a neighbor.
			p.connect(ctx, info.ID, signal.ConnectOffer{Fingerprint: info.Fingerprint, StaticKey: info.StaticKey}, true, "")
		}
	}
	p.mu.Lock()
	if len(p.neighbors) > before {
		p.resetMatchBackoffLocked()
	} else {
		p.matchBackoff = min(2*p.matchBackoff+1, matchBackoffMax)
		p.matchWait = p.matchBackoff
	}
	p.mu.Unlock()
}

// resetMatchBackoffLocked makes the next P2P-eligible segment ask the
// matcher. Caller holds p.mu.
func (p *Peer) resetMatchBackoffLocked() {
	p.matchWait, p.matchBackoff = 0, 0
}

// attempt is one connection attempt in flight with a peer, in either
// role. Peer.attempts holds it from beginAttempt to endAttempt, which is
// what lets an event elsewhere — the peer became a neighbor, the server
// reported it gone, this peer is tearing down — end it at once instead
// of leaving it to run out connectTimeout.
type attempt struct {
	peerID string
	// sess is the session the attempt began under: what it relays
	// through, names itself and presents in the handshake belongs to one
	// join even when a rejoin lands mid-attempt.
	sess   *session
	cancel context.CancelFunc
	// answer receives the peer's answer to our offer; nil on the
	// responder side.
	answer chan signal.ConnectOffer
}

// beginAttempt opens a connection attempt with the peer: it derives the
// attempt's context, bounded by connectTimeout, and registers it. It
// returns nil when the attempt is moot — the peer is already a
// neighbor, there is no signaling session to exchange offers over, or
// this peer is tearing down. The neighbor check and the registration
// share one critical section with addNeighbor's settling, so a
// connection registered at any point either stops the attempt here or
// cancels it.
func (p *Peer) beginAttempt(parent context.Context, peerID string, initiator bool) (context.Context, *attempt) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if _, connected := p.neighbors[peerID]; connected || p.draining || p.sess.sig == nil {
		return nil, nil
	}
	ctx, cancel := context.WithTimeout(parent, connectTimeout)
	a := &attempt{peerID: peerID, sess: p.sess, cancel: cancel}
	if initiator {
		a.answer = make(chan signal.ConnectOffer, 1)
	}
	p.attempts[a] = struct{}{}
	return ctx, a
}

// endAttempt closes an attempt beginAttempt opened.
func (p *Peer) endAttempt(a *attempt) {
	a.cancel()
	p.mu.Lock()
	delete(p.attempts, a)
	p.mu.Unlock()
}

// settleAttemptsLocked cancels every attempt in flight with the peer;
// each is unregistered by its own endAttempt as it returns. Caller
// holds p.mu — cancelling runs no code of ours, whoever watches the
// context wakes on its own goroutine.
func (p *Peer) settleAttemptsLocked(peerID string) {
	for a := range p.attempts {
		if a.peerID == peerID {
			a.cancel()
		}
	}
}

// connect runs one connection attempt with a peer, in either role and
// over either transport: build the local offer, exchange it through the
// signaling server, obtain the raw connection, handshake and register
// (DESIGN.md §2h). An initiator passes the fetch's context and, as
// remote, the fingerprint and static key the match delivered; a
// responder passes the Run context, the offer it received and the offer
// relay's TraceContext ("" from an untraced initiator), which its
// p2p_answer span continues so this peer's handshake work lands in the
// initiator's connection-setup trace.
func (p *Peer) connect(ctx context.Context, peerID string, remote signal.ConnectOffer, initiator bool, trace string) {
	if !initiator {
		// An offer that beats the end of our own join must wait for it,
		// not be dropped: the initiator would sit out connectTimeout.
		select {
		case <-p.admitted:
		case <-p.closed:
			return
		}
	}
	ctx, att := p.beginAttempt(ctx, peerID, initiator)
	if att == nil {
		return // moot: an offer from a connected peer goes unanswered
	}
	defer p.endAttempt(att)
	if !initiator {
		aspan := p.cfg.Tracer.StartSpanRemote(trace, "p2p_answer", obs.A("from", peerID))
		defer aspan.End()
		ctx = obs.ContextWithSpan(ctx, aspan)
	}
	s, turn := att.sess, p.cfg.TURNAddr.IsValid()

	// Over TURN nothing is gathered: nothing to advertise, nothing to leak.
	local := signal.ConnectOffer{Fingerprint: p.identity.Fingerprint(), StaticKey: p.StaticKeyHex()}
	var agent *ice.Agent
	var err error
	if !turn {
		if agent, err = ice.NewAgent(p.cfg.Host, s.peerID); err != nil {
			return
		}
		defer agent.Close()
		if local.Candidates, err = agent.Gather(ctx, p.cfg.STUNAddr); err != nil {
			return
		}
	}

	kind := signal.RelayAnswer
	if initiator {
		kind = signal.RelayOffer
	}
	if err = s.sig.RelayCtx(ctx, peerID, kind, local); err != nil {
		return
	}
	if initiator {
		select {
		case answer := <-att.answer:
			// Pin the server-delivered static key when the match carried
			// one; otherwise pin the answer's claim (the voucher check
			// still binds it to the swarm).
			if remote.StaticKey != "" {
				answer.StaticKey = remote.StaticKey
			}
			remote = answer
		case <-ctx.Done():
			return // timed out, or settled: no answer is coming
		}
	}

	var raw net.Conn
	if turn {
		// Both peers dial the relay's room for this pair; no addresses
		// are exchanged.
		room := s.peerID + "|" + peerID
		if peerID < s.peerID {
			room = peerID + "|" + s.peerID
		}
		raw, err = defense.DialRelay(ctx, p.cfg.Host, p.cfg.TURNAddr, room)
	} else {
		var nom ice.Candidate
		if nom, err = agent.Check(ctx, remote.Candidates); err != nil {
			return
		}
		raw, err = p.cfg.Network.Punch(ctx, p.cfg.Host, agent.LocalCandidateFor().Addr, nom.Addr)
	}
	if err != nil {
		return
	}
	conn, err := p.transportHandshake(ctx, s, raw, remote.Fingerprint, remote.StaticKey, initiator)
	if err != nil {
		return
	}
	p.addNeighbor(peerID, conn)
}

// transportHandshake establishes the P2P message transport over a raw
// connection: the authenticated secure channel when the policy demands
// it (reject-unsigned: a plain-DTLS peer simply fails the handshake),
// anonymous DTLS otherwise. It runs under a dtls_handshake or
// secure_handshake span, so stitched traces break out crypto setup cost
// from the transfer itself, and closes raw on any failure.
func (p *Peer) transportHandshake(ctx context.Context, s *session, raw net.Conn, theirFP, theirKey string, client bool) (p2pConn, error) {
	role := "server"
	if client {
		role = "client"
	}
	secured := s.policy.SecureTransport
	var span obs.Span
	if secured {
		_, span = p.cfg.Tracer.StartSpan(ctx, "secure_handshake", obs.A("role", role))
	} else {
		_, span = p.cfg.Tracer.StartSpan(ctx, "dtls_handshake", obs.A("role", role))
	}
	// The handshake's record reads block with no deadline of their own,
	// and a corrupted wire can eat the bytes they wait for (the
	// polluted-wire chaos scenario does exactly this) — honor the
	// caller's connectTimeout context by burning the conn's deadline
	// when it ends, or the stuck read outlives Run and wedges teardown's
	// WaitGroup.
	stopWatchdog := context.AfterFunc(ctx, func() { raw.SetDeadline(time.Unix(1, 0)) })
	var conn p2pConn
	var err error
	switch {
	case secured && client:
		conn, err = secure.Client(raw, p.secureConfig(s, theirKey))
	case secured:
		conn, err = secure.Server(raw, p.secureConfig(s, theirKey))
	case client:
		conn, err = dtls.Client(raw, p.dtlsConfig(theirFP))
	default:
		conn, err = dtls.Server(raw, p.dtlsConfig(theirFP))
	}
	// stopWatchdog reports false only when the watchdog has started:
	// the context ended mid-handshake and the deadline is (or is about
	// to be) burned, so the conn cannot be handed back. A cancel that
	// lands after this line finds the watchdog gone and touches nothing.
	if !stopWatchdog() && err == nil {
		conn.Close()
		err = ctx.Err()
	}
	span.End(obs.A("ok", err == nil))
	if err == nil {
		return conn, nil
	}
	if secured {
		p.metrics.secureFails.Inc()
		// A possession-proof or voucher failure names the claimed static
		// key; the matcher's distinct-reporter count quarantines leaked
		// keys.
		var bke *secure.BadKeyError
		if errors.As(err, &bke) && s.sig != nil {
			s.sig.ReportBadKey(bke.ClaimedKey)
		}
	}
	return nil, err
}

// handleRelay processes offers and answers arriving via signaling; both
// carry a ConnectOffer.
func (p *Peer) handleRelay(rel signal.Relay) {
	var offer signal.ConnectOffer
	if err := json.Unmarshal(rel.Payload, &offer); err != nil {
		return
	}
	switch rel.Kind {
	case signal.RelayOffer:
		// The dispatcher can deliver a queued offer after teardown has
		// begun; taking the WaitGroup slot under the draining check keeps
		// this Add ordered before teardown's final Wait. The answer runs
		// under the Run context, not the dispatcher's.
		p.mu.Lock()
		runCtx := p.runCtx
		if p.draining || runCtx == nil {
			p.mu.Unlock()
			return
		}
		p.wg.Add(1)
		p.mu.Unlock()
		go func() {
			defer p.wg.Done()
			p.connect(runCtx, rel.From, offer, false, rel.Trace)
		}()
	case signal.RelayAnswer:
		var ch chan signal.ConnectOffer
		p.mu.Lock()
		for a := range p.attempts {
			if a.peerID == rel.From && a.answer != nil {
				ch = a.answer
			}
		}
		p.mu.Unlock()
		if ch != nil {
			select {
			case ch <- offer:
			default:
			}
		}
	}
}

// onPeerGone handles a server departure notice: end any connection
// attempt with the vanished peer — no burning the full connect timeout
// on churned-out candidates — and evict it from the neighbor set so
// segment requests stop routing to a dead connection before the
// transport notices on its own.
func (p *Peer) onPeerGone(peerID string) {
	p.mu.Lock()
	p.settleAttemptsLocked(peerID)
	nb := p.neighbors[peerID]
	p.mu.Unlock()
	if nb != nil {
		nb.evict("peer_gone")
	}
}

// meterHooks returns the resource monitor's per-direction crypto
// hooks, nil when the peer runs unmetered.
func (p *Peer) meterHooks() (onEncrypt, onDecrypt func(int)) {
	if m := p.cfg.Meter; m != nil {
		return m.OnEncrypt, m.OnDecrypt
	}
	return nil, nil
}

// dtlsConfig builds the anonymous transport's config.
func (p *Peer) dtlsConfig(expectedFP string) dtls.Config {
	cfg := dtls.Config{Identity: p.identity, ExpectedPeerFingerprint: expectedFP}
	cfg.OnEncrypt, cfg.OnDecrypt = p.meterHooks()
	return cfg
}

// secureConfig builds the authenticated transport's config.
func (p *Peer) secureConfig(s *session, expectedKey string) secure.ChannelConfig {
	cfg := secure.ChannelConfig{
		Identity:        p.identity,
		PeerID:          s.peerID,
		SwarmID:         s.swarmID,
		Voucher:         s.voucher,
		AuthorityKey:    s.policy.TransportPubKey,
		ExpectedPeerKey: expectedKey,
		ClaimKey:        p.cfg.SecureImpersonate,
	}
	cfg.OnEncrypt, cfg.OnDecrypt = p.meterHooks()
	return cfg
}

// addNeighbor registers an established connection and starts its loop.
//
// Two peers can offer to each other at once, and each then runs an
// initiator and a responder attempt with the other. The first
// connection to register wins, and registering it settles every other
// attempt with that peer: an initiator still waiting for its answer
// will not get one (the far side, connected, drops the offer), and a
// responder waiting in Punch has lost its initiator the same way.
func (p *Peer) addNeighbor(id string, conn p2pConn) {
	nb := newNeighbor(id, conn, p)
	p.mu.Lock()
	// A connect or answer still in flight when teardown snapshots the
	// neighbor set must not register behind it: nothing would close the
	// connection, and teardown's Wait would sit on its read loop until
	// the far side happened to hang up.
	if _, exists := p.neighbors[id]; exists || p.draining {
		p.mu.Unlock()
		conn.Close()
		return
	}
	p.neighbors[id] = nb
	p.allNeighbors[id] = true
	n := len(p.neighbors)
	p.settleAttemptsLocked(id)
	p.wg.Add(1)
	p.mu.Unlock()
	p.cfg.Meter.SetNeighbors(n)
	go func() {
		defer p.wg.Done()
		nb.readLoop()
	}()
}

// removeNeighbor drops a closed connection.
func (p *Peer) removeNeighbor(id string) {
	p.mu.Lock()
	delete(p.neighbors, id)
	n := len(p.neighbors)
	p.resetMatchBackoffLocked()
	p.mu.Unlock()
	p.cfg.Meter.SetNeighbors(n)
}

// NeighborCount reports current P2P connections.
func (p *Peer) NeighborCount() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.neighbors)
}

// NeighborIDs lists every peer ID this peer connected to over its whole
// session, sorted. Because teardown closes connections before callers
// can look, the eclipse invariant inspects this ever-connected set
// rather than the live neighbor map.
func (p *Peer) NeighborIDs() []string {
	p.mu.Lock()
	out := make([]string, 0, len(p.allNeighbors))
	for id := range p.allNeighbors {
		out = append(out, id)
	}
	p.mu.Unlock()
	sort.Strings(out)
	return out
}
