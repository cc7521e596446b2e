package signal

import (
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
	"net"
	"net/netip"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"github.com/stealthy-peers/pdnsec/internal/auth"
	"github.com/stealthy-peers/pdnsec/internal/geoip"
	"github.com/stealthy-peers/pdnsec/internal/ice"
	"github.com/stealthy-peers/pdnsec/internal/media"
	"github.com/stealthy-peers/pdnsec/internal/netsim"
	"github.com/stealthy-peers/pdnsec/internal/obs"
	"github.com/stealthy-peers/pdnsec/internal/privacy"
	"github.com/stealthy-peers/pdnsec/internal/wire"
)

// IMService is the pluggable integrity-metadata arbiter (the §V-B
// defense). A nil IMService disables integrity checking, which is the
// deployed-provider behaviour the pollution attack exploits.
type IMService interface {
	// Report records a peer's IM for a CDN-fetched segment and returns
	// an error if the peer is now (or already was) blacklisted.
	Report(peerID string, key media.SegmentKey, hash string) error
	// SIM returns the signed IM for a segment if one is established.
	SIM(key media.SegmentKey) (hash, sig string, ok bool)
	// Blacklisted reports whether a peer has been banned.
	Blacklisted(peerID string) bool
}

// SIMWindower is what an IMService adds to answer a GetSIM that carries
// a Count with a run of hashes under one signature (defense.IMChecker
// does). A service without it answers every GetSIM with the one SIM.
type SIMWindower interface {
	// SIMWindow returns the established hashes of key and the segments
	// that follow it, at most count, and one signature over the run
	// (media.VerifySIMWindow checks it).
	SIMWindow(key media.SegmentKey, count int) (hashes []string, sig string, ok bool)
}

// TokenValidator validates a presented token for a video source — a
// private provider's session token or the §V-A disposable video-binding
// JWT, both issued by defense.TokenAuthority.
type TokenValidator interface {
	Validate(token, videoID string) error
}

// SecureService is the matcher-side half of the authenticated peer
// transport (secure.TransportAuthority satisfies it): it vouches for
// static keys registered in authenticated joins and quarantines keys
// whose possession proofs fail at enough distinct peers. A nil
// SecureService disables vouching — the deployed-provider behaviour.
type SecureService interface {
	// Vouch signs a voucher binding (peerID, swarmID, staticKeyHex).
	Vouch(peerID, swarmID, staticKeyHex string) (string, error)
	// ReportBadKey records a failed possession proof witnessed by
	// reporterID; it returns true on the report that quarantines the key.
	ReportBadKey(reporterID, staticKeyHex string) bool
	// Quarantined reports whether a static key is quarantined; the
	// matcher excludes such keys from matching in both directions.
	Quarantined(staticKeyHex string) bool
}

// Route describes where a swarm lives in a federated signaling plane.
type Route struct {
	// Server is the owning server's name (e.g. "s2").
	Server string
	// Addr is the owner's signaling address.
	Addr netip.AddrPort
	// Local reports that the queried server itself owns the swarm.
	Local bool
}

// Router maps swarm IDs to owning servers. A federated plane hands each
// server a router view (federation.Plane); a nil Router means the
// server owns everything — the single-server deployment is the N=1
// special case of the same code path, not a separate one.
type Router interface {
	// Route returns the owner of swarmID as seen by this server.
	Route(swarmID string) Route
	// Servers returns the signaling addresses of all live servers, for
	// redirect responses that refresh client bootstrap lists.
	Servers() []netip.AddrPort
}

// Config parameterizes a PDN signaling server.
type Config struct {
	// Keys authenticates public-provider joins (API key + origin).
	// Nil disables key authentication.
	Keys *auth.Registry
	// Tokens authenticates joins that carry a token. Nil disables token
	// authentication.
	Tokens TokenValidator
	// RequireAuth rejects joins that present no credential. The
	// extracted Mango TV SDK imposed no constraint, modelled by false.
	RequireAuth bool
	// Policy is delivered to every peer at join.
	Policy Policy
	// GeoDB geolocates peers for the geo-matching mitigation and for
	// experiment reporting. Nil disables geolocation.
	GeoDB *geoip.DB
	// IM enables peer-assisted integrity checking.
	IM IMService
	// Secure enables static-key vouching and bad-key quarantine for the
	// authenticated transport (provider.Secure() wires it).
	Secure SecureService
	// Seed drives peer-matching randomness. Matching draws from a
	// per-swarm generator seeded from (Seed, swarm ID), so a swarm's
	// pairing sequence does not depend on the shard count.
	Seed int64
	// Shards stripes the swarm/candidate-pool state across this many
	// locks (keyed by swarm ID). Zero or one keeps the single-stripe
	// layout; 10k-peer deployments want 16.
	Shards int
	// ServerName names this server inside a federated plane. It prefixes
	// peer IDs ("s1p42") so IDs stay globally unique across servers, and
	// labels the per-server metrics. Empty keeps the seed "pN" format
	// and the "s0" metric label — the single-server deployment.
	ServerName string
	// Router, when set, makes this server one member of a federated
	// plane: a join for a swarm it does not own is answered with a
	// redirect to the owner. Nil means this server owns every swarm.
	Router Router
	// Obs, when set, registers the server's counters and swarm-size
	// gauge. Nil disables metrics at the cost of one branch per event.
	Obs *obs.Registry
	// Tracer, when set, records signaling events (join/match/relay/IM
	// arbitration). The caller picks the clock domain — testbeds hand in
	// a tracer built on the simulated network's clock.
	Tracer *obs.Tracer
}

// Server is a running PDN signaling server.
type Server struct {
	cfg     Config
	metrics serverMetrics

	nextID atomic.Int64
	shards []*shard
	dir    peerDir
	// hosts aggregates connected identities and match grants per client
	// address — the per-host visibility Policy.MaxPeersPerHost needs.
	hosts *hostLedger

	deliverCh chan deliverJob

	listener *netsim.Listener
	done     chan struct{}
	wg       sync.WaitGroup // accept loop + per-connection handlers
	flushWg  sync.WaitGroup // per-shard flushers
	workerWg sync.WaitGroup // delivery workers
	closed   sync.Once
}

// session is the server's view of one connected peer.
type session struct {
	id          string
	customer    string
	swarmID     string
	fingerprint string
	staticKey   string
	candidates  []ice.Candidate
	country     string
	addr        netip.Addr
	cellular    bool

	// shard owns this session's swarm; everything below that isn't
	// guarded by sess.mu is guarded by shard.mu.
	shard *shard
	// swarm and poolIdx locate the session in its candidate pool
	// (swarm nil once unregistered).
	swarm   *swarm
	poolIdx int
	// advertisedTo holds the sessions this peer was handed to as a
	// match candidate — the exact audience for its departure notice.
	// advertised is the reverse index, so a departing watcher unhooks
	// itself. Both sides of every edge live in the same swarm, hence
	// under the same shard lock.
	advertisedTo map[string]*session
	advertised   map[string]*session

	mu    sync.Mutex
	codec *wire.Codec
	joinT time.Time
}

// send serializes concurrent writes to the peer.
func (s *session) send(typ string, payload any) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.codec.Send(typ, payload)
}

// serverMetrics holds the server's counter handles. All handles are
// nil-safe, so a server built without a registry pays only the nil
// branch inside each operation.
type serverMetrics struct {
	joins           *obs.Counter
	joinRejects     *obs.Counter
	matchRequests   *obs.Counter
	peersMatched    *obs.Counter
	relays          *obs.Counter
	relaysDelivered *obs.Counter
	relayDrops      *obs.Counter
	peerGone        *obs.Counter
	imReports       *obs.Counter
	statsReports    *obs.Counter
	redirects       *obs.Counter
	hostCapped      *obs.Counter
	secureReports   *obs.Counter
	secureQuarant   *obs.Counter
	batchSize       *obs.Histogram
}

// NewServer constructs a server with the given configuration and starts
// its delivery pipeline (stopped by Close).
func NewServer(cfg Config) *Server {
	if cfg.Shards <= 0 {
		cfg.Shards = 1
	}
	// The pool that writes queued outbound messages (match responses,
	// relays, peer-gone notices) is sized to the stripes feeding it.
	deliveryWorkers := 2 * cfg.Shards
	if deliveryWorkers > 32 {
		deliveryWorkers = 32
	}
	s := &Server{
		cfg:       cfg,
		shards:    make([]*shard, cfg.Shards),
		hosts:     newHostLedger(),
		deliverCh: make(chan deliverJob, cfg.Shards),
		done:      make(chan struct{}),
	}
	for i := range s.shards {
		s.shards[i] = &shard{
			swarms: make(map[string]*swarm),
			q:      newOutQueue(),
		}
	}
	reg := cfg.Obs
	s.metrics = serverMetrics{
		joins:           reg.Counter("signal_joins_total", "peers admitted to a swarm"),
		joinRejects:     reg.Counter("signal_join_rejects_total", "joins rejected at authentication"),
		matchRequests:   reg.Counter("signal_match_requests_total", "get-peers requests served"),
		peersMatched:    reg.Counter("signal_peers_matched_total", "peer candidates handed out"),
		relays:          reg.Counter("signal_relays_total", "SDP/ICE messages relayed between peers"),
		relaysDelivered: reg.Counter("signal_relays_delivered_total", "relayed messages written to their target"),
		relayDrops:      reg.Counter("signal_relay_drops_total", "accepted relays lost to a dead target or shutdown"),
		peerGone:        reg.Counter("signal_peer_gone_total", "departure notices queued to watching peers"),
		imReports:       reg.Counter("signal_im_reports_total", "integrity-metadata reports arbitrated"),
		statsReports:    reg.Counter("signal_stats_reports_total", "peer usage reports accounted"),
		redirects:       reg.Counter("signal_redirects_total", "joins redirected to the swarm's owning server"),
		hostCapped:      reg.Counter("signal_match_host_capped_total", "match candidates or requests refused because their host exceeded the per-host identity budget"),
		secureReports:   reg.Counter("signal_secure_reports_total", "bad-static-key reports received from peers"),
		secureQuarant:   reg.Counter("signal_secure_quarantines_total", "static keys quarantined after distinct bad-signature reports"),
		batchSize:       reg.Histogram("signal_match_batch_size", "outbound messages drained per delivery tick"),
	}
	reg.GaugeFunc("signal_swarm_peers", "currently connected peers across all swarms", func() float64 {
		return float64(s.PeerCount())
	})
	reg.GaugeFunc("signal_shard_depth", "outbound messages queued across all shards", func() float64 {
		return float64(s.queueDepth())
	})
	label := cfg.ServerName
	if label == "" {
		label = "s0"
	}
	reg.GaugeVec("signal_ring_owned_swarms", "swarms resident per federated server", "server").
		WithFunc(label, func() float64 { return float64(s.SwarmCount()) })
	s.flushWg.Add(len(s.shards))
	for _, sh := range s.shards {
		go s.flushLoop(sh)
	}
	s.workerWg.Add(deliveryWorkers)
	for i := 0; i < deliveryWorkers; i++ {
		go s.deliverLoop()
	}
	return s
}

// Serve starts accepting signaling connections on a simulated host/port.
func (s *Server) Serve(host *netsim.Host, port uint16) error {
	l, err := host.Listen(port)
	if err != nil {
		return fmt.Errorf("signal: listen: %w", err)
	}
	s.listener = l
	s.wg.Add(1)
	go s.acceptLoop()
	return nil
}

// Close stops the server and disconnects all peers. Shutdown order
// matters: closing peer codecs unwinds the connection handlers, the
// flushers then drain and exit on done, and only after the last
// flusher is gone is the worker channel closed.
func (s *Server) Close() error {
	s.closed.Do(func() {
		close(s.done)
		if s.listener != nil {
			s.listener.Close()
		}
		for _, sess := range s.dir.all() {
			sess.codec.Close()
		}
		s.wg.Wait()
		s.flushWg.Wait()
		close(s.deliverCh)
		s.workerWg.Wait()
	})
	return nil
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.listener.Accept()
		if err != nil {
			return
		}
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			s.handleConn(conn)
		}()
	}
}

// sessionBufSize sizes the per-session wire buffers. Signaling frames
// are small (a join with a dozen ICE candidates is ~2 KB), and a
// federated 100k-peer swarmload holds one codec per peer on each side,
// so the 64 KiB default would cost tens of GB in bufio alone.
const sessionBufSize = 8 << 10

// joinReadTimeout bounds the wait for a connection's join frame. A
// client sends it as soon as it dials, so only a frame whose length
// prefix announces bytes that never come (a corrupted uplink) waits
// this long; after the join, a session may stay idle for as long as it
// likes.
const joinReadTimeout = 5 * time.Second

// handleConn authenticates one peer and serves its message loop.
func (s *Server) handleConn(conn net.Conn) {
	codec := wire.NewCodecSize(conn, sessionBufSize)
	defer codec.Close()

	conn.SetReadDeadline(time.Now().Add(joinReadTimeout))
	env, err := codec.Read()
	if err != nil {
		return
	}
	if env.Type != MsgJoin {
		codec.Send(MsgError, ErrorInfo{Code: CodeBadRequest, Message: "expected join"})
		return
	}
	var join JoinRequest
	if err := env.Decode(&join); err != nil {
		codec.Send(MsgError, ErrorInfo{Code: CodeBadRequest, Message: err.Error()})
		return
	}
	conn.SetReadDeadline(time.Time{})

	// Federated routing happens before authentication: the owner is the
	// authority for its swarms and checks the credentials when the
	// client rejoins there, and a redirect leaks nothing an open join
	// endpoint doesn't.
	if r := s.cfg.Router; r != nil {
		if route := r.Route(join.Video + "/" + join.Rendition); !route.Local {
			s.metrics.redirects.Inc()
			s.cfg.Tracer.Event("signal_redirect", obs.A("swarm", join.Video+"/"+join.Rendition), obs.A("owner", route.Server))
			servers := make([]string, 0, 4)
			for _, ap := range r.Servers() {
				servers = append(servers, ap.String())
			}
			codec.Send(MsgRedirect, Redirect{Owner: route.Server, Addr: route.Addr.String(), Servers: servers})
			return
		}
	}

	// The serve span continues the client's join trace (join.Trace is the
	// encoded TraceContext the SDK stamped), so client and server stitch.
	jspan := s.cfg.Tracer.StartSpanRemote(join.Trace, "signal_join_serve", obs.A("swarm", join.Video+"/"+join.Rendition))
	customer, err := s.authenticate(join)
	if err != nil {
		s.metrics.joinRejects.Inc()
		jspan.Event("signal_join_reject", obs.A("video", join.Video), obs.A("reason", err.Error()),
			obs.A("client", privacy.RedactAddr(remoteAddr(conn))))
		jspan.End(obs.A("ok", false))
		codec.Send(MsgError, ErrorInfo{Code: CodeAuthFailed, Message: err.Error()})
		return
	}

	sess := s.register(codec, conn, join, customer)
	s.metrics.joins.Inc()
	// The client address is peer-identifying (the paper's §IV leak class);
	// it only ever reaches telemetry through internal/privacy — peertaint
	// flags this event if the sanitizer is dropped.
	jspan.Event("signal_join", obs.A("peer", sess.id), obs.A("swarm", sess.swarmID),
		obs.A("client", privacy.RedactAddr(sess.addr)))
	defer s.unregister(sess)

	if s.cfg.Keys != nil && customer != "" {
		s.cfg.Keys.RecordJoin(customer)
	}
	welcome := Welcome{PeerID: sess.id, SwarmID: sess.swarmID, Policy: s.cfg.Policy}
	if s.cfg.Secure != nil && sess.staticKey != "" {
		// Vouch for the registered static key: the join's credential just
		// authenticated this session, so the matcher signs (peer, swarm,
		// key) and the peer presents that voucher in its handshakes.
		if v, verr := s.cfg.Secure.Vouch(sess.id, sess.swarmID, sess.staticKey); verr == nil {
			welcome.Voucher = v
		}
	}
	err = sess.send(MsgWelcome, welcome)
	jspan.End(obs.A("ok", err == nil), obs.A("peer", sess.id))
	if err != nil {
		return
	}

	for {
		env, err := codec.Read()
		if err != nil {
			return
		}
		if done := s.dispatch(sess, env); done {
			return
		}
	}
}

// authenticate validates the join's credentials per the configuration.
func (s *Server) authenticate(join JoinRequest) (string, error) {
	switch {
	case join.APIKey != "" && s.cfg.Keys != nil:
		origin := join.Origin
		if origin == "" {
			origin = join.Referer
		}
		return s.cfg.Keys.Authenticate(join.APIKey, origin)
	case join.Token != "" && s.cfg.Tokens != nil:
		return "", s.cfg.Tokens.Validate(join.Token, join.VideoURL)
	case !s.cfg.RequireAuth:
		return "", nil
	default:
		return "", errors.New("signal: no valid credential presented")
	}
}

// register adds the peer to its swarm's candidate pool and the global
// relay directory.
func (s *Server) register(codec *wire.Codec, conn net.Conn, join JoinRequest, customer string) *session {
	addr := remoteAddr(conn)
	country := ""
	if s.cfg.GeoDB != nil && addr.IsValid() {
		country = s.cfg.GeoDB.Lookup(addr).Country
	}
	sess := &session{
		id:           s.cfg.ServerName + "p" + strconv.FormatInt(s.nextID.Add(1), 10),
		customer:     customer,
		swarmID:      join.Video + "/" + join.Rendition,
		fingerprint:  join.Fingerprint,
		staticKey:    join.StaticKey,
		candidates:   append([]ice.Candidate(nil), join.Candidates...),
		country:      country,
		addr:         addr,
		cellular:     join.Cellular,
		advertisedTo: make(map[string]*session),
		advertised:   make(map[string]*session),
		codec:        codec,
		joinT:        time.Now(),
	}
	sh := s.shardFor(sess.swarmID)
	sess.shard = sh
	sh.mu.Lock()
	sw, ok := sh.swarms[sess.swarmID]
	if !ok {
		sw = &swarm{
			id:  sess.swarmID,
			rng: rand.New(rand.NewSource(swarmSeed(s.cfg.Seed, sess.swarmID))),
		}
		sh.swarms[sess.swarmID] = sw
	}
	sess.swarm = sw
	sess.poolIdx = len(sw.members)
	sw.members = append(sw.members, sess)
	sh.mu.Unlock()
	s.dir.put(sess)
	s.hosts.add(sess.addr)
	return sess
}

// unregister removes the peer and queues coalesced departure notices to
// every still-connected peer it was advertised to.
func (s *Server) unregister(sess *session) {
	s.dir.del(sess.id)
	s.hosts.remove(sess.addr)
	sh := sess.shard
	sh.mu.Lock()
	if sw := sess.swarm; sw != nil {
		last := len(sw.members) - 1
		sw.members[sess.poolIdx] = sw.members[last]
		sw.members[sess.poolIdx].poolIdx = sess.poolIdx
		sw.members = sw.members[:last]
		sess.swarm = nil
		if len(sw.members) == 0 {
			delete(sh.swarms, sw.id)
		}
	}
	watchers := make([]*session, 0, len(sess.advertisedTo))
	for _, w := range sess.advertisedTo {
		watchers = append(watchers, w)
		delete(w.advertised, sess.id)
	}
	sess.advertisedTo = nil
	for _, c := range sess.advertised {
		delete(c.advertisedTo, sess.id)
	}
	sess.advertised = nil
	sh.mu.Unlock()
	for _, w := range watchers {
		s.enqueue(sh, outMsg{sess: w, typ: MsgPeerGone, payload: PeerGone{Peers: []string{sess.id}}})
		s.metrics.peerGone.Inc()
	}
	if s.cfg.Keys != nil && sess.customer != "" {
		s.cfg.Keys.RecordViewerTime(sess.customer, time.Since(sess.joinT))
	}
}

// dispatch handles one message; it returns true when the session ends.
func (s *Server) dispatch(sess *session, env wire.Envelope) bool {
	switch env.Type {
	case MsgGetPeers:
		var req GetPeersReq
		if err := env.Decode(&req); err != nil {
			s.enqueue(sess.shard, outMsg{sess: sess, typ: MsgError, payload: ErrorInfo{Code: CodeBadRequest, Message: err.Error()}})
			return false
		}
		// The match span continues the client's trace: a get_peers issued
		// inside a segment fetch lands the server's matching work in that
		// fetch's span tree.
		mspan := s.cfg.Tracer.StartSpanRemote(req.Trace, "signal_match_serve", obs.A("peer", sess.id))
		matched := s.matchPeers(sess, req.Max)
		s.metrics.matchRequests.Inc()
		s.metrics.peersMatched.Add(int64(len(matched)))
		mspan.Event("signal_match", obs.A("peer", sess.id), obs.A("matched", len(matched)))
		s.enqueue(sess.shard, outMsg{sess: sess, typ: MsgPeers, payload: PeersResp{Peers: matched}})
		mspan.End(obs.A("matched", len(matched)))
	case MsgStats:
		var st Stats
		if err := env.Decode(&st); err != nil {
			return false
		}
		s.metrics.statsReports.Inc()
		if s.cfg.Keys != nil && sess.customer != "" {
			s.cfg.Keys.RecordP2P(sess.customer, st.P2PDownBytes+st.P2PUpBytes)
			s.cfg.Keys.RecordCDN(sess.customer, st.CDNDownBytes)
		}
	case MsgRelay:
		var rel Relay
		if err := env.Decode(&rel); err != nil {
			return false
		}
		rel.From = sess.id
		target := s.dir.get(rel.To)
		if target == nil {
			s.enqueue(sess.shard, outMsg{sess: sess, typ: MsgError, payload: ErrorInfo{Code: CodeNotFound, Message: "peer " + rel.To}})
			return false
		}
		s.metrics.relays.Inc()
		// The relay span joins the sender's connection-setup trace, and the
		// delivered message carries the server span's context so the
		// recipient's answer work parents under it (client → server →
		// recipient, one causal chain).
		rspan := s.cfg.Tracer.StartSpanRemote(rel.Trace, "signal_relay_serve", obs.A("from", rel.From), obs.A("to", rel.To))
		rspan.Event("signal_relay", obs.A("from", rel.From), obs.A("to", rel.To))
		if rel.Trace != "" {
			rel.Trace = rspan.TraceContext().String()
		}
		s.enqueue(target.shard, outMsg{sess: target, typ: MsgRelay, payload: rel})
		rspan.End()
	case MsgIMReport:
		var rep IMReport
		if err := env.Decode(&rep); err != nil {
			return false
		}
		s.metrics.imReports.Inc()
		if s.cfg.IM != nil {
			if err := s.cfg.IM.Report(sess.id, rep.Key, rep.Hash); err != nil {
				s.cfg.Tracer.Event("signal_im_report", obs.A("peer", sess.id), obs.A("blacklisted", true))
				sess.send(MsgError, ErrorInfo{Code: CodeBlacklisted, Message: err.Error()})
				return true
			}
			s.cfg.Tracer.Event("signal_im_report", obs.A("peer", sess.id), obs.A("blacklisted", false))
		}
	case MsgGetSIM:
		var req GetSIM
		if err := env.Decode(&req); err != nil {
			return false
		}
		resp := SIM{Key: req.Key}
		if w, windowed := s.cfg.IM.(SIMWindower); windowed && req.Count > 0 {
			if hashes, sig, ok := w.SIMWindow(req.Key, req.Count); ok {
				resp.Window, resp.Sig, resp.Found = hashes, sig, true
			}
		} else if s.cfg.IM != nil {
			if hash, sig, ok := s.cfg.IM.SIM(req.Key); ok {
				resp.Hash, resp.Sig, resp.Found = hash, sig, true
			}
		}
		sess.send(MsgSIM, resp)
	case MsgBadKey:
		var rep BadKeyReport
		if err := env.Decode(&rep); err != nil {
			return false
		}
		s.metrics.secureReports.Inc()
		if s.cfg.Secure != nil && rep.StaticKey != "" {
			if s.cfg.Secure.ReportBadKey(sess.id, rep.StaticKey) {
				s.metrics.secureQuarant.Inc()
				s.cfg.Tracer.Event("signal_secure_quarantine", obs.A("peer", sess.id))
			}
		}
	case MsgBye:
		return true
	default:
		sess.send(MsgError, ErrorInfo{Code: CodeBadRequest, Message: "unknown type " + env.Type})
	}
	return false
}

// matchPeers selects up to max swarm-mates for the requester, applying
// the geo-matching policy when enabled and skipping blacklisted peers.
//
// Selection is a partial Fisher–Yates over the swarm's candidate pool
// with inline eligibility rejection: each step swaps a uniformly-drawn
// remaining member into position and keeps it if eligible, so the
// result is a uniform k-subset of the eligible peers in O(k) expected
// draws — against the seed path's full scan + shuffle per request,
// which is what capped swarms at a few hundred peers.
func (s *Server) matchPeers(sess *session, max int) []PeerInfo {
	if max <= 0 {
		max = s.cfg.Policy.MaxNeighbors
	}
	budget := s.cfg.Policy.MaxPeersPerHost
	if budget > 0 && s.hosts.identities(sess.addr) > budget {
		// Quarantine: a host over its identity budget neither receives
		// matches nor is advertised to anyone (see the candidate check
		// below). An identity mill or leech farm is thereby cut off in
		// both directions instead of merely rate-limited.
		s.metrics.hostCapped.Inc()
		return nil
	}
	if s.cfg.Secure != nil && sess.staticKey != "" && s.cfg.Secure.Quarantined(sess.staticKey) {
		// A quarantined key gets no matches: like the host budget, the
		// cutoff is bidirectional (see the candidate check below).
		return nil
	}
	sh := sess.shard
	sh.mu.Lock()
	sw := sess.swarm
	if sw == nil {
		sh.mu.Unlock()
		return nil
	}
	n := len(sw.members)
	out := make([]PeerInfo, 0, max)
	var grants map[netip.Addr]int64
	for i := 0; i < n && len(out) < max; i++ {
		j := i + sw.rng.Intn(n-i)
		sw.members[i], sw.members[j] = sw.members[j], sw.members[i]
		sw.members[i].poolIdx = i
		sw.members[j].poolIdx = j
		cand := sw.members[i]
		if cand == sess {
			continue
		}
		if s.cfg.Policy.GeoMatchCountry && cand.country != sess.country {
			continue
		}
		if s.cfg.IM != nil && s.cfg.IM.Blacklisted(cand.id) {
			continue
		}
		if budget > 0 && s.hosts.identities(cand.addr) > budget {
			s.metrics.hostCapped.Inc()
			continue
		}
		if s.cfg.Secure != nil && cand.staticKey != "" && s.cfg.Secure.Quarantined(cand.staticKey) {
			continue
		}
		out = append(out, PeerInfo{
			ID:          cand.id,
			Fingerprint: cand.fingerprint,
			Candidates:  append([]ice.Candidate(nil), cand.candidates...),
			Country:     cand.country,
			StaticKey:   cand.staticKey,
		})
		cand.advertisedTo[sess.id] = sess
		sess.advertised[cand.id] = cand
		if cand.addr.IsValid() {
			if grants == nil {
				grants = make(map[netip.Addr]int64)
			}
			grants[cand.addr]++
		}
	}
	sh.mu.Unlock()
	s.hosts.grantAll(grants)
	return out
}

// PeerCount reports the number of connected peers (tests/monitoring).
func (s *Server) PeerCount() int {
	return s.dir.count()
}

// SwarmCount reports the number of swarms resident on this server —
// in a federated plane, the swarms the ring assigned here and that have
// at least one live member.
func (s *Server) SwarmCount() int {
	total := 0
	for _, sh := range s.shards {
		sh.mu.Lock()
		total += len(sh.swarms)
		sh.mu.Unlock()
	}
	return total
}

// SwarmSize reports the population of one swarm.
func (s *Server) SwarmSize(video, rendition string) int {
	swarmID := video + "/" + rendition
	sh := s.shardFor(swarmID)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if sw, ok := sh.swarms[swarmID]; ok {
		return len(sw.members)
	}
	return 0
}

// peerDir is the lock-striped global peer directory relays resolve
// against — the only cross-swarm lookup in the server.
type peerDir struct {
	stripes [16]dirStripe
}

// dirStripe is one lock stripe of the peer directory. It is a named
// type (rather than an anonymous struct) so its mutex is a nameable
// lock class — signal.dirStripe.mu — in the lockorder analyzer's
// declared hierarchy: a stripe lock is a leaf, acquired under shard or
// plane locks but never the other way around.
type dirStripe struct {
	mu sync.RWMutex
	m  map[string]*session
}

func (d *peerDir) stripe(id string) *dirStripe {
	h := fnv.New32a()
	h.Write([]byte(id))
	return &d.stripes[h.Sum32()%uint32(len(d.stripes))]
}

func (d *peerDir) put(sess *session) {
	st := d.stripe(sess.id)
	st.mu.Lock()
	if st.m == nil {
		st.m = make(map[string]*session)
	}
	st.m[sess.id] = sess
	st.mu.Unlock()
}

func (d *peerDir) del(id string) {
	st := d.stripe(id)
	st.mu.Lock()
	delete(st.m, id)
	st.mu.Unlock()
}

func (d *peerDir) get(id string) *session {
	st := d.stripe(id)
	st.mu.RLock()
	defer st.mu.RUnlock()
	return st.m[id]
}

func (d *peerDir) count() int {
	total := 0
	for i := range d.stripes {
		st := &d.stripes[i]
		st.mu.RLock()
		total += len(st.m)
		st.mu.RUnlock()
	}
	return total
}

func (d *peerDir) all() []*session {
	var out []*session
	for i := range d.stripes {
		st := &d.stripes[i]
		st.mu.RLock()
		for _, sess := range st.m {
			out = append(out, sess)
		}
		st.mu.RUnlock()
	}
	return out
}

// remoteAddr extracts the peer's IP from the connection.
func remoteAddr(conn net.Conn) netip.Addr {
	if ta, ok := conn.RemoteAddr().(*net.TCPAddr); ok {
		if a, ok := netip.AddrFromSlice(ta.IP); ok {
			return a.Unmap()
		}
	}
	return netip.Addr{}
}
