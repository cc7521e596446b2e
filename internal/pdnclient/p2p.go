package pdnclient

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"math"
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

// p2pOp is a data-channel frame header's operation.
type p2pOp byte

const (
	opWant    p2pOp = 1 // ask for Key
	opSegment p2pOp = 2 // answer for Key; when Found, the segment follows
)

// p2pMsg is the data-channel frame header. A found segment goes out as
// two messages, this header and then the segment itself, so the body is
// sealed straight from the cache and opened into the cache's spare, the
// buffer the viewer keeps.
type p2pMsg struct {
	Op    p2pOp
	Key   media.SegmentKey
	Found bool
	// Trace carries the requester's encoded obs.TraceContext on want
	// frames, so the serving peer's p2p_serve span stitches into the
	// requester's segment trace. Opaque identifiers only — never
	// addresses (pdnlint peertaint treats it as a sink).
	Trace string
}

// hasBody reports whether the segment follows the header as the next
// message.
func (h p2pMsg) hasBody() bool { return h.Op == opSegment && h.Found }

// A frame header on the wire is fixed fields, then length-prefixed
// strings, big-endian:
//
//	op(1) | found(1) | index(4) | len(2) video | len(2) rendition | len(2) trace
const msgFixed = 1 + 1 + 4

var errBadMsg = errors.New("pdnclient: malformed frame header")

// appendMsg appends h's encoding to dst.
func appendMsg(dst []byte, h p2pMsg) ([]byte, error) {
	k := h.Key // a negative index wraps past MaxUint32
	if uint64(k.Index) > math.MaxUint32 || max(len(k.Video), len(k.Rendition), len(h.Trace)) > math.MaxUint16 {
		return dst, errBadMsg
	}
	dst = append(dst, byte(h.Op), 0)
	if h.Found {
		dst[len(dst)-1] = 1
	}
	dst = binary.BigEndian.AppendUint32(dst, uint32(k.Index))
	for _, f := range [...]string{k.Video, k.Rendition, h.Trace} {
		dst = binary.BigEndian.AppendUint16(dst, uint16(len(f)))
		dst = append(dst, f...)
	}
	return dst, nil
}

// decodeMsg parses a frame header. Every byte is the neighbor's to
// choose: a found flag other than 0 or 1, a length running past the
// frame or bytes left after the trace make the frame malformed, so an
// accepted header re-encodes to exactly the frame it came from. A
// string equal to prev's is prev's, not a copy: a neighbor names the
// same video and rendition in every header, so a read loop that passes
// the header it decoded last decodes those strings once.
func decodeMsg(frame []byte, prev p2pMsg) (p2pMsg, error) {
	if len(frame) < msgFixed || frame[1] > 1 {
		return p2pMsg{}, errBadMsg
	}
	h := p2pMsg{Op: p2pOp(frame[0]), Found: frame[1] == 1}
	h.Key.Index = int(binary.BigEndian.Uint32(frame[2:msgFixed]))
	rest := frame[msgFixed:]
	prevs := [...]string{prev.Key.Video, prev.Key.Rendition, prev.Trace}
	for i, f := range [...]*string{&h.Key.Video, &h.Key.Rendition, &h.Trace} {
		if len(rest) < 2 {
			return p2pMsg{}, errBadMsg
		}
		n := 2 + int(binary.BigEndian.Uint16(rest))
		if len(rest) < n {
			return p2pMsg{}, errBadMsg
		}
		if *f = prevs[i]; string(rest[2:n]) != prevs[i] {
			*f = string(rest[2:n])
		}
		rest = rest[n:]
	}
	if len(rest) != 0 {
		return p2pMsg{}, errBadMsg
	}
	return h, nil
}

// p2pConn is the message transport a neighbor runs over: anonymous
// DTLS for the deployed profiles, the authenticated secure channel
// when the policy demands it. Both satisfy it.
type p2pConn interface {
	Send(msg []byte) error
	RecvInto(dst []byte) ([]byte, error)
	Close() error
}

// neighbor is one established P2P connection.
type neighbor struct {
	id   string
	conn p2pConn
	peer *Peer

	reqMu chan struct{} // capacity-1 semaphore: one outstanding want
	// timer bounds the outstanding want's wait; only reqMu's holder
	// touches it.
	timer     *time.Timer
	respCh    chan p2pFrame // segment responses
	closedC   chan struct{}
	closeOnce sync.Once   // evict (read loop) and teardown both call close
	evicting  atomic.Bool // latches the first eviction so it counts once

	// sendMu holds a found header and its body together on the wire, so
	// a want cannot land between them; it guards hdr, the buffer every
	// header is encoded into.
	sendMu sync.Mutex
	hdr    []byte
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
		timer:   time.NewTimer(requestTimeout),
		respCh:  make(chan p2pFrame, 1),
		closedC: make(chan struct{}),
	}
	nb.timer.Stop()
	nb.reqMu <- struct{}{}
	return nb
}

// send writes a frame header and, when it has one, its body, under one
// hold of sendMu. The record layer seals the body from the caller's
// bytes and keeps none of them, so the header buffer is reused and a
// cached segment is only ever read.
func (nb *neighbor) send(h p2pMsg, body []byte) error {
	nb.sendMu.Lock()
	defer nb.sendMu.Unlock()
	var err error
	if nb.hdr, err = appendMsg(nb.hdr[:0], h); err != nil {
		return err
	}
	if err = nb.conn.Send(nb.hdr); err != nil || !h.hasBody() {
		return err
	}
	return nb.conn.Send(body)
}

// close tears the connection down and removes it from the peer, unless
// a replacement holds its ID; the loss resets the match backoff.
func (nb *neighbor) close() {
	nb.closeOnce.Do(func() {
		close(nb.closedC)
		nb.conn.Close()
		p := nb.peer
		p.mu.Lock()
		if p.neighbors[nb.id] != nb {
			p.mu.Unlock()
			return
		}
		delete(p.neighbors, nb.id)
		n := len(p.neighbors)
		p.resetMatchBackoffLocked()
		p.mu.Unlock()
		p.cfg.Meter.SetNeighbors(n)
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

// readLoop serves inbound requests and routes responses. A frame
// header is opened into the buffer the last one was read into, so the
// sender gets the header's record buffer back as it gets a body's:
// decodeMsg keeps no byte of the frame.
func (nb *neighbor) readLoop() {
	defer nb.evict("conn_broken")
	var (
		prev p2pMsg
		last []byte
	)
	for {
		frame, err := nb.conn.RecvInto(last)
		if err != nil {
			return
		}
		// Anything that is not a header where one is due — an unknown op,
		// or a body nobody announced — is ignored.
		hdr, err := decodeMsg(frame, prev)
		if err != nil {
			continue
		}
		prev, last = hdr, frame[:0]
		switch hdr.Op {
		case opWant:
			nb.serve(hdr.Key, hdr.Trace)
		case opSegment:
			var body []byte
			if hdr.hasBody() {
				// The body lands in the cache's spare, and the sender gets
				// its record buffer back.
				if body, err = nb.conn.RecvInto(nb.peer.cache.takeSpare()); err != nil {
					return
				}
			}
			nb.park(p2pFrame{hdr: hdr, payload: body})
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
	resp := p2pMsg{Op: opSegment, Key: key}
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
		if data, ok := p.cache.serveFrom(key.Index); ok {
			resp.Found = true
			payload = data
			p.metrics.cacheHits.Inc()
		} else {
			p.metrics.cacheMiss.Inc()
		}
	}
	// The record layer seals the cached segment into a buffer of its own,
	// so neither the wire nor an in-flight corruption ever aliases the
	// cache; until it is done, the entry is never the cache's spare.
	err := nb.send(resp, payload)
	if resp.Found {
		p.cache.doneServing(key.Index, payload)
	}
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

	if err := nb.send(p2pMsg{Op: opWant, Key: key, Trace: obs.ContextString(ctx)}, nil); err != nil {
		nb.evict("send_failed")
		return nil, false
	}
	nb.timer.Reset(requestTimeout)
	defer nb.timer.Stop()
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
		case <-nb.timer.C:
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
			if actx, att := p.beginAttempt(ctx, info.ID, true); att != nil {
				p.connect(actx, att, info.ID, signal.ConnectOffer{Fingerprint: info.Fingerprint, StaticKey: info.StaticKey}, "")
			}
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

// attempt is the one connection attempt in flight with a peer, in either
// role, held in Peer.attempts under the peer's ID from beginAttempt to
// endAttempt: an event elsewhere — a crossing offer, the peer gone,
// teardown — ends it at once instead of leaving it to run out
// connectTimeout. It holds a slot of Peer.wg as long.
type attempt struct {
	// sess is the session the attempt began under: what it relays
	// through, names itself and presents in the handshake belongs to one
	// join even when a rejoin lands mid-attempt.
	sess   *session
	cancel context.CancelFunc
	// answer receives the peer's answer to our offer; nil on the
	// responder side.
	answer chan signal.ConnectOffer
	ended  chan struct{}   // closed once the attempt has returned
	after  <-chan struct{} // the replaced attempt's ended, if any
}

// beginAttempt is the one place an attempt's fate is decided, by the
// rules of DESIGN.md §2h: it registers the attempt, cancelling the one it
// replaces, under a context bounded by connectTimeout (a responder's
// derives from the Run context), or returns nil.
func (p *Peer) beginAttempt(parent context.Context, peerID string, initiator bool) (context.Context, *attempt) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if !initiator {
		parent = p.runCtx
	}
	if p.draining || p.sess.sig == nil || parent == nil {
		return nil, nil
	}
	prev := p.attempts[peerID]
	if initiator {
		if _, connected := p.neighbors[peerID]; connected || prev != nil {
			return nil, nil // never beside an attempt or a connection
		}
	} else if prev != nil && prev.answer != nil && peerID > prev.sess.peerID {
		// A crossing offer from the higher ID, judged against the ID our
		// attempt began under: the far side answers ours.
		return nil, nil
	}
	ctx, cancel := context.WithTimeout(parent, connectTimeout)
	a := &attempt{sess: p.sess, cancel: cancel, ended: make(chan struct{})}
	if initiator {
		a.answer = make(chan signal.ConnectOffer, 1)
	}
	if prev != nil {
		prev.cancel()
		a.after = prev.ended
	}
	p.attempts[peerID] = a
	p.wg.Add(1) // under the draining check: ordered before teardown's Wait
	return ctx, a
}

// endAttempt closes an attempt beginAttempt opened, unregistering it
// unless a replacement has taken its place.
func (p *Peer) endAttempt(peerID string, a *attempt) {
	a.cancel()
	p.mu.Lock()
	if p.attempts[peerID] == a {
		delete(p.attempts, peerID)
	}
	p.mu.Unlock()
	close(a.ended)
	p.wg.Done()
}

// connect runs the attempt beginAttempt opened with a peer, in either
// role and over either transport: build the local offer, exchange it
// through the signaling server, obtain the raw connection, handshake and
// register (DESIGN.md §2h). An initiator passes the fetch's context and,
// as remote, the fingerprint and static key the match delivered; a
// responder passes the offer it received and the offer relay's
// TraceContext ("" from an untraced initiator), which its p2p_answer
// span continues so this peer's handshake work lands in the initiator's
// connection-setup trace.
func (p *Peer) connect(ctx context.Context, att *attempt, peerID string, remote signal.ConnectOffer, trace string) {
	defer p.endAttempt(peerID, att)
	if att.after != nil {
		// The replaced attempt, cancelled, returns promptly: waiting keeps
		// one at work per peer, and an offer it relayed ahead of our answer.
		<-att.after
	}
	initiator := att.answer != nil
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
	// An initiator cancelled by now yielded to a crossing offer: it
	// offers nothing.
	if ctx.Err() != nil || s.sig.RelayCtx(ctx, peerID, kind, local) != nil {
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
		// An offer that beats the end of our own join waits for it, not
		// dropped: the initiator would sit out connectTimeout. From then
		// on an offer's fate is decided here, in relay order, so one that
		// crosses ours is judged while our attempt still waits for the
		// answer that follows it.
		select {
		case <-p.admitted:
		case <-p.closed:
			return
		}
		if ctx, att := p.beginAttempt(nil, rel.From, false); att != nil {
			go p.connect(ctx, att, rel.From, offer, rel.Trace)
		}
	case signal.RelayAnswer:
		p.mu.Lock()
		a := p.attempts[rel.From]
		p.mu.Unlock()
		if a != nil && a.answer != nil {
			select {
			case a.answer <- offer:
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
	if a := p.attempts[peerID]; a != nil {
		a.cancel() // its own endAttempt unregisters it
	}
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
// A connection already registered under the ID is replaced: the far
// side offered again because it no longer holds that one, so it is
// closed as deliberately as teardown would, and counts as no eviction.
func (p *Peer) addNeighbor(id string, conn p2pConn) {
	nb := newNeighbor(id, conn, p)
	p.mu.Lock()
	// A connect or answer still in flight when teardown snapshots the
	// neighbor set must not register behind it: nothing would close the
	// connection, and teardown's Wait would sit on its read loop until
	// the far side happened to hang up.
	if p.draining {
		p.mu.Unlock()
		conn.Close()
		return
	}
	old := p.neighbors[id]
	p.neighbors[id] = nb
	p.allNeighbors[id] = true
	n := len(p.neighbors)
	p.wg.Add(1)
	p.mu.Unlock()
	if old != nil {
		old.close()
	}
	p.cfg.Meter.SetNeighbors(n)
	go func() {
		defer p.wg.Done()
		nb.readLoop()
	}()
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
