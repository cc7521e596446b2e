// Package pdnclient implements the PDN SDK — the in-browser peer the
// paper studies. A Peer plays a video the way an instrumented viewer
// does: it fetches manifests and leading segments from the CDN ("slow
// start"), joins the PDN signaling server, connects to matched neighbors
// over ICE + DTLS, downloads later segments peer-to-peer with CDN
// fallback, caches and re-serves segments to others, and reports usage
// statistics that bill the customer whose API key it joined with.
//
// Security-relevant behaviours are faithful to the paper's observations:
//   - the peer trusts whatever segment bytes a neighbor sends — there is
//     no integrity verification unless the §V-B defense is enabled via
//     policy (RequireIMChecking), which is exactly why the video segment
//     pollution attack works;
//   - the peer joins with a static API key and client-controlled
//     Origin/Referer strings;
//   - the peer answers every connection offer and serves every cached
//     segment, exposing its address to any swarm member;
//   - resource consumption (crypto, playback, cache, upload) is metered
//     but never surfaced to the viewer, matching the no-consent finding.
package pdnclient

import (
	"context"
	"crypto/ed25519"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/netip"
	"sort"
	"sync"
	"time"

	"github.com/stealthy-peers/pdnsec/internal/cdn"
	"github.com/stealthy-peers/pdnsec/internal/federation"
	"github.com/stealthy-peers/pdnsec/internal/hls"
	"github.com/stealthy-peers/pdnsec/internal/media"
	"github.com/stealthy-peers/pdnsec/internal/monitor"
	"github.com/stealthy-peers/pdnsec/internal/netsim"
	"github.com/stealthy-peers/pdnsec/internal/obs"
	"github.com/stealthy-peers/pdnsec/internal/privacy"
	"github.com/stealthy-peers/pdnsec/internal/record"
	"github.com/stealthy-peers/pdnsec/internal/signal"
)

// Source labels where a segment came from.
const (
	SourceCDN = "cdn"
	SourceP2P = "p2p"
)

// Config parameterizes a peer.
type Config struct {
	// Host is the simulated machine the peer runs on. Required.
	Host *netsim.Host
	// Network is needed to materialize punched P2P flows. Required.
	Network *netsim.Network

	// SignalAddr and STUNAddr locate the PDN provider's services.
	SignalAddr netip.AddrPort
	STUNAddr   netip.AddrPort
	// SignalAddrs is the bootstrap seed list for federated providers:
	// every signaling server the SDK shipped with. When set it
	// supersedes SignalAddr; the peer joins through any live entry and
	// follows redirects to its swarm's owner. Reconnects re-resolve
	// this list (plus servers learned from redirects) rather than
	// pinning the original address, so a crashed owner doesn't strand
	// the peer.
	SignalAddrs []netip.AddrPort
	// TURNAddr, when valid, routes all P2P transport through a TURN
	// relay (§V-C): the peer gathers no ICE candidates, advertises no
	// addresses, and never learns its neighbors' addresses.
	TURNAddr netip.AddrPort
	// CDNBase is the CDN origin, e.g. "http://93.184.216.34:80". The
	// pollution attacker points this at its fake CDN.
	CDNBase string

	// Credentials: APIKey+Origin(+Referer) for public providers, or
	// Token+VideoURL for private ones. All client-controlled.
	APIKey   string
	Origin   string
	Referer  string
	Token    string
	VideoURL string

	// Video and Rendition select the stream.
	Video     string
	Rendition string

	// Meter, when set, receives resource accounting.
	Meter *monitor.Meter
	// Cellular marks the peer as metered; the provider policy then
	// decides upload/download participation.
	Cellular bool

	// MaxSegments bounds how many segments to play (0 = entire VOD, or
	// until ctx cancellation for live).
	MaxSegments int
	// Pace is the delay between segment plays (0 = as fast as possible;
	// real playback would use the segment duration).
	Pace time.Duration
	// StatsInterval is how often the SDK pushes usage reports to the
	// provider (0 = only at session end). Real SDKs report
	// continuously — that is what meters long-lived sessions.
	StatsInterval time.Duration
	// CacheSegments caps the in-memory segment cache (default 8).
	CacheSegments int
	// OnSegment, when set, observes every played segment — experiments
	// use it to detect whether pollution reached this viewer.
	OnSegment func(key media.SegmentKey, data []byte, source string)
	// UploadPolicy, when set, is consulted before serving each neighbor
	// request; returning false refuses the upload. Adversarial
	// populations use it to model free-riders and eclipse colluders that
	// take the protocol's downloads without ever serving a byte. Nil
	// allows every upload the provider policy allows.
	UploadPolicy func(key media.SegmentKey) bool
	// LiveEdgeSegments, for live streams, makes the peer tune in near the
	// live edge: all but the last N segments of the first playlist it
	// sees are treated as already played. Zero plays the full window —
	// the catch-up behaviour VOD viewers exhibit.
	LiveEdgeSegments int
	// Linger keeps the peer online (serving uploads and answering
	// offers) after playback completes, modelling a viewer who leaves
	// the page open. Run returns early if ctx is cancelled.
	Linger time.Duration
	// Seed drives neighbor-selection randomness.
	Seed int64
	// DisableP2P turns the peer into a plain CDN viewer (the paper's
	// "no peer" control group).
	DisableP2P bool
	// VerifyHashManifest enables the alternative integrity defense the
	// paper's disclosure section attributes to Viblast/Peer5 premium
	// offerings: the player downloads a CDN-served per-segment hash
	// list and verifies every segment against it. Effective, but every
	// viewer pays the extra CDN bytes (compare the peer-assisted IM
	// defense, which costs the CDN nothing absent an attack).
	VerifyHashManifest bool
	// RequireSecureTransport makes the peer refuse to run against a
	// provider whose policy does not offer the authenticated secure
	// transport — the pin that defeats a MITM stripping SecureTransport
	// from the welcome to downgrade the swarm to anonymous DTLS.
	// Deployed SDKs ship without it, which is why the downgrade works
	// against them.
	RequireSecureTransport bool
	// InsecureNoVerify disables all client-side integrity verification
	// (IM checking and signed-manifest checks) and the CDN-side IM
	// reports. Adversarial populations use it to model a modified SDK
	// that knowingly caches and re-serves polluted bytes without
	// incriminating itself at the arbitration panel.
	InsecureNoVerify bool
	// SecureImpersonate, when set, registers this hex static public key
	// at join and claims it in handshakes instead of the peer's own key
	// — the key-compromise attacker, who scraped a victim's (public)
	// static key and replays its registration without the private half.
	SecureImpersonate string
	// GracefulDegrade makes a failed PDN join non-fatal: the peer
	// silently becomes a plain CDN viewer. This is how real SDKs behave
	// when viewers block the PDN server's domain (the paper cites
	// AdblockPlus filter lists doing exactly that against Douyu) — the
	// video must keep playing either way.
	GracefulDegrade bool
	// Obs, when set, registers the peer's counters. Many peers sharing
	// one registry aggregate into a single swarm-wide counter set.
	Obs *obs.Registry
	// Tracer, when set, records per-segment source decisions and
	// playback events. Testbed peers receive a tracer stamping from the
	// simulated network's clock.
	Tracer *obs.Tracer
}

// Stats summarizes a peer's run.
type Stats struct {
	SegmentsPlayed int   `json:"segments_played"`
	FromCDN        int   `json:"from_cdn"`
	FromP2P        int   `json:"from_p2p"`
	CDNBytes       int64 `json:"cdn_bytes"`
	P2PDownBytes   int64 `json:"p2p_down_bytes"`
	P2PUpBytes     int64 `json:"p2p_up_bytes"`
	IMRejected     int   `json:"im_rejected"`
	Neighbors      int   `json:"neighbors"`
}

// peerMetrics holds the peer's counter handles; all are nil-safe, so a
// peer built without a registry pays only the nil branch per event.
type peerMetrics struct {
	segsCDN          *obs.Counter
	segsP2P          *obs.Counter
	cdnBytes         *obs.Counter
	p2pDownBytes     *obs.Counter
	p2pUpBytes       *obs.Counter
	imRejects        *obs.Counter
	stalls           *obs.Counter
	cacheHits        *obs.Counter
	cacheMiss        *obs.Counter
	slowStartExits   *obs.Counter
	cdnFallbacks     *obs.Counter
	neighborsEvicted *obs.Counter
	sigReconnects    *obs.Counter
	sigReconnectFail *obs.Counter
	secureFails      *obs.Counter
	manifestRejects  *obs.Counter
	simFetches       *obs.Counter
}

// Peer is a running PDN SDK instance.
type Peer struct {
	cfg      Config
	identity *record.Identity
	http     *http.Client
	rng      *rand.Rand
	metrics  peerMetrics
	// store tracks the provider's bootstrap servers (seed list +
	// redirect-learned) with health/backoff; every join and rejoin
	// resolves through it.
	store *federation.Peerstore

	mu sync.Mutex
	// sess is the current signaling session; before the first join (and
	// for good on a DisableP2P peer) the empty one, whose sig is nil.
	sess      *session
	runCtx    context.Context // the active Run's context; answers derive from it
	neighbors map[string]*neighbor
	attempts  map[*attempt]struct{} // connection attempts in flight
	// matchWait counts down the P2P-eligible segments still to pass before
	// maintainNeighbors asks the matcher again; matchBackoff is the wait
	// the last futile ask set.
	matchWait    int
	matchBackoff int
	cache        *segmentCache
	stats        Stats
	reported     signal.Stats // last usage values already sent upstream
	played       map[int]bool
	// expectedSegBytes is derived from the master playlist's declared
	// bandwidth × the media playlist's target duration. P2P segments
	// deviating wildly from it are rejected as inconsistent — the
	// mechanism that makes the paper's *direct* content pollution
	// attack fail while targeted same-size segment pollution passes.
	expectedSegBytes int
	// hashManifest holds the CDN-served per-segment hashes when
	// VerifyHashManifest is on.
	hashManifest map[string]string
	// slowStartExited latches the first P2P-eligible segment so the
	// slow-start exit is counted once per session.
	slowStartExited bool
	// liveSynced latches the live-edge tune-in so only the first live
	// playlist marks its backlog as played.
	liveSynced bool
	// allNeighbors remembers every peer ID this peer ever connected to;
	// unlike neighbors it survives teardown, so post-run invariants can
	// inspect who a viewer actually talked to.
	allNeighbors map[string]bool
	// lastStallTrace is the trace ID of the most recent segment fetch
	// that failed outright — chaos invariant violations cite it so a red
	// run names the exact trace to inspect alongside the replay seed.
	lastStallTrace string

	closed chan struct{}
	// admitted is closed once the first join has published its session.
	// The matcher advertises a peer from the moment it welcomes it, so an
	// offer can arrive while the welcome is still on its way into sess; a
	// responding connect waits for it.
	admitted  chan struct{}
	admitOnce sync.Once
	// lingerStop ends the linger phase; its own channel rather than
	// closed, so StopLinger before playback finishes only skips the
	// linger instead of shutting the reconnect loop down mid-stream.
	lingerStop     chan struct{}
	lingerStopOnce sync.Once
	// draining (guarded by mu) is set when teardown begins: dispatcher
	// callbacks must not take new WaitGroup slots once the final Wait
	// may have started, so handleRelay checks it before wg.Add.
	draining bool
	wg       sync.WaitGroup
}

// session is what one signaling join yielded. join publishes it whole
// and nothing edits its fields, so a reader that holds one sees a single
// join's client, identity, policy and credentials however many rejoins
// land. What the session's server vouched for since — sims — lives and
// dies with it.
type session struct {
	sig    *signal.Client
	peerID string
	policy signal.Policy
	// voucher is the matcher's signature over (peerID, swarmID,
	// staticKey) from the welcome; the peer presents it in every secure
	// handshake it runs.
	voucher string
	swarmID string
	// manifestKey is policy.ManifestPubKey parsed: nil when the provider
	// signs no manifests, or sent a key that is not one.
	manifestKey ed25519.PublicKey
	// sims caches the run of SIM hashes last verified under manifestKey.
	sims simCache
}

// newSession builds the session a welcome admits this peer to.
func (p *Peer) newSession(sig *signal.Client, w signal.Welcome) *session {
	s := &session{
		sig:     sig,
		peerID:  w.PeerID,
		policy:  w.Policy,
		voucher: w.Voucher,
		swarmID: p.cfg.Video + "/" + p.cfg.Rendition,
	}
	if raw, err := hex.DecodeString(w.Policy.ManifestPubKey); err == nil && len(raw) == ed25519.PublicKeySize {
		s.manifestKey = raw
	}
	return s
}

// session returns the current session; never nil.
func (p *Peer) session() *session {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.sess
}

// New constructs a peer (no I/O yet).
func New(cfg Config) (*Peer, error) {
	if cfg.Host == nil || cfg.Network == nil {
		return nil, errors.New("pdnclient: Host and Network are required")
	}
	if cfg.Video == "" || cfg.Rendition == "" {
		return nil, errors.New("pdnclient: Video and Rendition are required")
	}
	if cfg.CacheSegments <= 0 {
		cfg.CacheSegments = 8
	}
	id, err := record.NewIdentity()
	if err != nil {
		return nil, err
	}
	p := &Peer{
		cfg:      cfg,
		identity: id,
		http: &http.Client{
			Transport: &http.Transport{DialContext: cfg.Host.Dialer()},
			Timeout:   10 * time.Second,
		},
		rng:          rand.New(rand.NewSource(cfg.Seed)),
		sess:         &session{},
		neighbors:    make(map[string]*neighbor),
		attempts:     make(map[*attempt]struct{}),
		played:       make(map[int]bool),
		allNeighbors: make(map[string]bool),
		closed:       make(chan struct{}),
		admitted:     make(chan struct{}),
		lingerStop:   make(chan struct{}),
	}
	seeds := cfg.SignalAddrs
	if len(seeds) == 0 && cfg.SignalAddr.IsValid() {
		seeds = []netip.AddrPort{cfg.SignalAddr}
	}
	p.store = federation.NewPeerstore(seeds, time.Now)
	reg := cfg.Obs
	p.metrics = peerMetrics{
		segsCDN:          reg.Counter("pdn_segments_cdn_total", "segments played from the CDN"),
		segsP2P:          reg.Counter("pdn_segments_p2p_total", "segments played from peers"),
		cdnBytes:         reg.Counter("pdn_cdn_bytes_total", "bytes downloaded from the CDN"),
		p2pDownBytes:     reg.Counter("pdn_p2p_down_bytes_total", "bytes downloaded from peers"),
		p2pUpBytes:       reg.Counter("pdn_p2p_up_bytes_total", "bytes uploaded to peers"),
		imRejects:        reg.Counter("pdn_im_rejects_total", "P2P segments rejected by integrity checking"),
		stalls:           reg.Counter("pdn_stalls_total", "segments skipped as unfetchable"),
		cacheHits:        reg.Counter("pdn_cache_hits_total", "neighbor requests served from the segment cache"),
		cacheMiss:        reg.Counter("pdn_cache_misses_total", "neighbor requests the segment cache could not serve"),
		slowStartExits:   reg.Counter("pdn_slow_start_exits_total", "sessions that reached P2P eligibility"),
		cdnFallbacks:     reg.Counter("pdn_cdn_fallbacks_total", "P2P-eligible segments that fell back to the CDN"),
		neighborsEvicted: reg.Counter("pdn_neighbors_evicted_total", "neighbors dropped as dead or unresponsive"),
		sigReconnects:    reg.Counter("pdn_signal_reconnects_total", "signaling sessions re-established after a drop"),
		sigReconnectFail: reg.Counter("pdn_signal_reconnect_failures_total", "failed signaling reconnect attempts"),
		secureFails:      reg.Counter("pdn_secure_handshake_fails_total", "secure-transport handshakes rejected (bad signature, voucher, or key pin)"),
		manifestRejects:  reg.Counter("pdn_manifest_rejects_total", "segments rejected by signed-manifest verification"),
		simFetches:       reg.Counter("pdn_sim_window_fetches_total", "signaling round trips made for a window of signed integrity metadata"),
	}
	p.cache = newSegmentCache(cfg.CacheSegments, cfg.Meter.SetCacheBytes)
	return p, nil
}

// ID returns the server-assigned peer ID (empty before Run joins).
func (p *Peer) ID() string { return p.session().peerID }

// Policy returns the provider policy received at join.
func (p *Peer) Policy() signal.Policy { return p.session().policy }

// Stats returns a snapshot of the peer's counters.
func (p *Peer) Stats() Stats {
	p.mu.Lock()
	defer p.mu.Unlock()
	st := p.stats
	st.Neighbors = len(p.neighbors)
	return st
}

// Fingerprint returns the peer's DTLS certificate fingerprint.
func (p *Peer) Fingerprint() string { return p.identity.Fingerprint() }

// StaticKeyHex returns the hex static public key this peer registers
// for the secure transport (the impersonated key when
// SecureImpersonate is set — what the peer *claims*, not what it owns).
func (p *Peer) StaticKeyHex() string {
	if p.cfg.SecureImpersonate != "" {
		return p.cfg.SecureImpersonate
	}
	return p.identity.PublicKeyHex()
}

// LastStallTrace returns the trace ID (16 hex digits) of the most
// recent segment fetch that failed outright, or "" when none has — or
// when the peer runs untraced. Chaos invariant violations cite it next
// to the scenario+seed replay line so a red run names the exact trace
// to pull out of the JSONL files.
func (p *Peer) LastStallTrace() string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.lastStallTrace
}

// CachedIndices returns the segment indices currently held in the
// upload cache, sorted ascending. Chaos invariant checks use it to
// audit what a peer would serve.
func (p *Peer) CachedIndices() []int { return p.cache.indices() }

// CachedSegment returns the cached bytes for a segment index, if held.
// The returned slice is the cache's own backing array; callers must not
// mutate it.
func (p *Peer) CachedSegment(idx int) ([]byte, bool) { return p.cache.get(idx) }

// Run plays the configured stream until it finishes, MaxSegments is
// reached, or ctx is cancelled. It returns the final stats.
func (p *Peer) Run(ctx context.Context) (Stats, error) {
	defer p.teardown()

	p.mu.Lock()
	p.runCtx = ctx
	p.mu.Unlock()

	if !p.cfg.DisableP2P {
		if err := p.join(ctx); err != nil {
			if !p.cfg.GracefulDegrade {
				return p.Stats(), fmt.Errorf("pdnclient: join: %w", err)
			}
			// PDN unreachable or rejected: degrade to a plain viewer.
			p.cfg.DisableP2P = true
		}
	}
	p.cfg.Meter.SetPDNLoaded(!p.cfg.DisableP2P)
	if !p.cfg.DisableP2P {
		p.wg.Add(1)
		go func() {
			defer p.wg.Done()
			p.reconnectLoop(ctx)
		}()
	}
	if p.cfg.StatsInterval > 0 && !p.cfg.DisableP2P {
		p.wg.Add(1)
		go func() {
			defer p.wg.Done()
			t := time.NewTicker(p.cfg.StatsInterval)
			defer t.Stop()
			for {
				select {
				case <-t.C:
					p.reportStats()
				case <-p.closed:
					return
				case <-ctx.Done():
					return
				}
			}
		}()
	}

	if err := p.playbackLoop(ctx); err != nil && !errors.Is(err, context.Canceled) && !errors.Is(err, context.DeadlineExceeded) {
		return p.Stats(), err
	}
	if p.cfg.Linger > 0 && ctx.Err() == nil {
		select {
		case <-time.After(p.cfg.Linger):
		case <-ctx.Done():
		case <-p.lingerStop:
		}
	}
	p.reportStats()
	return p.Stats(), nil
}

// StopLinger ends the linger phase early; called before playback
// finishes, it makes Run return as soon as playback does.
func (p *Peer) StopLinger() {
	p.lingerStopOnce.Do(func() { close(p.lingerStop) })
}

// join performs ICE gathering and the signaling join. The bootstrap
// layer resolves which server to talk to: any live entry from the
// peerstore, following redirects to the swarm's owner. Rejoins run the
// same resolution, so a crashed owner is routed around instead of
// retried forever.
func (p *Peer) join(ctx context.Context) error {
	// The join is its own trace root: the serving server's join span (on
	// a federated misroute, the owner's, after the redirect) stitches
	// under it via JoinRequest.Trace.
	ctx, jspan := p.cfg.Tracer.StartSpan(ctx, "peer_join",
		obs.A("video", p.cfg.Video), obs.A("rendition", p.cfg.Rendition))
	cands, err := p.gatherCandidates(ctx)
	if err != nil {
		jspan.End(obs.A("ok", false))
		return err
	}
	res, err := federation.Join(ctx, p.cfg.Host, p.store, signal.JoinRequest{
		APIKey:      p.cfg.APIKey,
		Origin:      p.cfg.Origin,
		Referer:     p.cfg.Referer,
		Token:       p.cfg.Token,
		VideoURL:    p.cfg.VideoURL,
		Video:       p.cfg.Video,
		Rendition:   p.cfg.Rendition,
		Fingerprint: p.identity.Fingerprint(),
		StaticKey:   p.StaticKeyHex(),
		Candidates:  cands,
		Cellular:    p.cfg.Cellular,
	}, func(c *signal.Client) {
		c.OnRelay(p.handleRelay)
		c.OnPeerGone(p.onPeerGone)
	})
	if err != nil {
		jspan.End(obs.A("ok", false))
		return err
	}
	sig, w := res.Client, res.Welcome
	if p.cfg.RequireSecureTransport && (!w.Policy.SecureTransport || w.Policy.TransportPubKey == "") {
		// The provider (or a man in the middle rewriting the welcome)
		// offered an unauthenticated swarm: a secure-profile SDK refuses
		// the downgrade rather than degrading to anonymous DTLS.
		sig.Close()
		jspan.End(obs.A("ok", false))
		return errors.New("pdnclient: provider offered no secure transport (downgrade rejected)")
	}
	// The admitting server's address is infrastructure, not peer
	// identity, but traces cross trust boundaries (CI artifacts, shared
	// dashboards) — so it is redacted like everything else address-shaped.
	jspan.Event("signal_bootstrap",
		obs.A("server", privacy.Redact(res.Server.String())),
		obs.A("peer", w.PeerID))
	jspan.End(obs.A("ok", true), obs.A("peer", w.PeerID))
	p.mu.Lock()
	select {
	case <-p.closed:
		// Teardown raced the (re)join: it already closed whatever client
		// it could see, so this one is ours to clean up.
		p.mu.Unlock()
		sig.Close()
		return ErrPeerClosed
	default:
	}
	old := p.sess.sig
	p.sess = p.newSession(sig, w)
	p.resetMatchBackoffLocked() // another server, or the same one with its swarm re-formed
	p.mu.Unlock()
	p.admitOnce.Do(func() { close(p.admitted) })
	if old != nil {
		old.Close()
	}
	return nil
}

// ErrPeerClosed reports that the peer shut down while an operation was
// in flight.
var ErrPeerClosed = errors.New("pdnclient: peer closed")

// Reconnect tuning: a dropped signaling session is retried with capped
// exponential backoff. Bounded attempts keep a dead provider from
// pinning goroutines forever — after giving up the peer keeps playing
// from the CDN with whatever neighbors survive.
const (
	reconnectBaseBackoff = 50 * time.Millisecond
	reconnectMaxBackoff  = time.Second
	reconnectMaxAttempts = 6
)

// reconnectLoop watches the signaling connection and re-establishes it
// when it drops — the hardening the chaos scenarios exercise by
// partitioning the signal server mid-session. Run starts it after a
// join, so there is a client to watch. Runs until the peer closes, ctx
// ends, or a reconnect round exhausts its attempts.
func (p *Peer) reconnectLoop(ctx context.Context) {
	for {
		select {
		case <-p.session().sig.Done():
		case <-p.closed:
			return
		case <-ctx.Done():
			return
		}
		select {
		case <-p.closed:
			return
		default:
		}
		if !p.rejoin(ctx) {
			return
		}
	}
}

// rejoin re-dials and re-joins the signaling server with capped
// backoff. Reports whether the session was restored.
func (p *Peer) rejoin(ctx context.Context) bool {
	backoff := reconnectBaseBackoff
	for attempt := 1; ; attempt++ {
		select {
		case <-time.After(backoff):
		case <-p.closed:
			return false
		case <-ctx.Done():
			return false
		}
		if err := p.join(ctx); err == nil {
			p.metrics.sigReconnects.Inc()
			p.cfg.Tracer.Event("signal_reconnect", obs.A("attempt", attempt))
			return true
		}
		p.metrics.sigReconnectFail.Inc()
		if attempt >= reconnectMaxAttempts {
			p.cfg.Tracer.Event("signal_reconnect_giveup", obs.A("attempts", attempt))
			return false
		}
		backoff *= 2
		if backoff > reconnectMaxBackoff {
			backoff = reconnectMaxBackoff
		}
	}
}

// learnExpectedSize derives the consistency baseline from the master
// playlist (declared bandwidth) and the media playlist (durations).
func (p *Peer) learnExpectedSize(ctx context.Context, pl *hls.MediaPlaylist) {
	p.mu.Lock()
	known := p.expectedSegBytes
	p.mu.Unlock()
	if known > 0 || len(pl.Segments) == 0 {
		return
	}
	body, err := p.httpGet(ctx, cdn.MasterURL(p.cfg.CDNBase, p.cfg.Video))
	if err != nil {
		return
	}
	master, err := hls.ParseMasterPlaylist(body)
	if err != nil {
		return
	}
	for _, v := range master.Variants {
		if v.Name == p.cfg.Rendition {
			expected := int(pl.Segments[0].Duration * float64(v.Bandwidth) / 8)
			p.mu.Lock()
			p.expectedSegBytes = expected
			p.mu.Unlock()
			return
		}
	}
}

// consistent applies the SDK's bitrate-consistency check to a
// P2P-delivered segment. Sizes within ±25% of the declared bitrate ×
// duration pass (adaptive streams vary); wholesale replacement with a
// different video fails it.
func (p *Peer) consistent(n int) bool {
	p.mu.Lock()
	expected := p.expectedSegBytes
	p.mu.Unlock()
	if expected <= 0 {
		return true // no baseline learned: accept, like early SDKs
	}
	lo := expected - expected/4
	hi := expected + expected/4
	return n >= lo && n <= hi
}

// playbackLoop drives segment consumption.
func (p *Peer) playbackLoop(ctx context.Context) error {
	for {
		pl, err := p.fetchPlaylist(ctx)
		if err != nil {
			return err
		}
		p.learnExpectedSize(ctx, pl)
		p.syncLiveEdge(pl)
		p.forgetSlidOut(pl)
		progressed := false
		for i, seg := range pl.Segments {
			idx, ok := hls.ParseSegmentURI(seg.URI)
			if !ok {
				idx = pl.MediaSequence + i
			}
			p.mu.Lock()
			done := p.played[idx]
			total := p.stats.SegmentsPlayed
			p.mu.Unlock()
			if done {
				continue
			}
			if p.cfg.MaxSegments > 0 && total >= p.cfg.MaxSegments {
				return nil
			}
			if err := p.playSegment(ctx, idx); err != nil {
				if ctx.Err() != nil {
					return ctx.Err()
				}
				p.metrics.stalls.Inc()
				p.cfg.Tracer.Event("stall", obs.A("video", p.cfg.Video), obs.A("idx", idx),
					obs.A("trace", p.LastStallTrace()))
				continue // skip unfetchable segment, as players do
			}
			progressed = true
			if p.cfg.Pace > 0 {
				select {
				case <-time.After(p.cfg.Pace):
				case <-ctx.Done():
					return ctx.Err()
				}
			}
		}
		p.mu.Lock()
		total := p.stats.SegmentsPlayed
		p.mu.Unlock()
		if p.cfg.MaxSegments > 0 && total >= p.cfg.MaxSegments {
			return nil
		}
		if !pl.Live {
			if !progressed || total >= len(pl.Segments) {
				return nil
			}
			continue
		}
		// Live: wait for the window to slide.
		if !progressed {
			select {
			case <-time.After(20 * time.Millisecond):
			case <-ctx.Done():
				return ctx.Err()
			}
		}
	}
}

// syncLiveEdge implements LiveEdgeSegments: on the first live playlist,
// everything except the trailing N segments is marked played, so the
// viewer starts near the live edge instead of replaying the window.
func (p *Peer) syncLiveEdge(pl *hls.MediaPlaylist) {
	n := p.cfg.LiveEdgeSegments
	if n <= 0 || !pl.Live {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.liveSynced {
		return
	}
	p.liveSynced = true
	for i, seg := range pl.Segments {
		if i >= len(pl.Segments)-n {
			break
		}
		idx, ok := hls.ParseSegmentURI(seg.URI)
		if !ok {
			idx = pl.MediaSequence + i
		}
		p.played[idx] = true
	}
}

// forgetSlidOut drops the played marks below pl's media sequence: those
// segments have slid out of the live window and no later playlist lists
// them, so a live session's bookkeeping stays window-sized. A VOD
// playlist starts at 0 and drops nothing.
func (p *Peer) forgetSlidOut(pl *hls.MediaPlaylist) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for idx := range p.played {
		if idx < pl.MediaSequence {
			delete(p.played, idx)
		}
	}
}

// loadHashManifest fetches the CDN's per-segment hash list once.
func (p *Peer) loadHashManifest(ctx context.Context) {
	p.mu.Lock()
	loaded := p.hashManifest != nil
	p.mu.Unlock()
	if loaded {
		return
	}
	body, err := p.httpGet(ctx, cdn.HashesURL(p.cfg.CDNBase, p.cfg.Video, p.cfg.Rendition))
	if err != nil {
		return // live asset or older CDN: defense unavailable
	}
	p.cfg.Meter.OnHTTP(len(body))
	var hashes map[string]string
	if err := json.Unmarshal(body, &hashes); err != nil {
		return
	}
	p.mu.Lock()
	p.hashManifest = hashes
	p.mu.Unlock()
}

// playSegment fetches (P2P-first after slow start), meters, caches and
// observes one segment.
func (p *Peer) playSegment(ctx context.Context, idx int) error {
	key := media.SegmentKey{Video: p.cfg.Video, Rendition: p.cfg.Rendition, Index: idx}
	// The segment span is the root of the fetch's distributed trace: its
	// context rides the signaling match, every p2p want frame, and the
	// CDN fallback's traceparent header, so pdntrace can stitch the whole
	// cross-process tree back under this one span.
	ctx, span := p.cfg.Tracer.StartSpan(ctx, "segment", obs.A("video", key.Video), obs.A("idx", idx))
	data, source, err := p.fetchSegment(ctx, key)
	if err != nil {
		span.End(obs.A("source", "none"))
		if tc := span.TraceContext(); tc.Valid() && ctx.Err() == nil {
			p.mu.Lock()
			p.lastStallTrace = tc.TraceIDString()
			p.mu.Unlock()
		}
		return err
	}
	span.End(obs.A("source", source))
	if source == SourceCDN {
		p.metrics.segsCDN.Inc()
	} else {
		p.metrics.segsP2P.Inc()
	}
	p.cfg.Meter.OnPlayback(len(data))
	if !p.cfg.DisableP2P {
		// The segment cache exists to serve uploads; a plain CDN viewer
		// holds only transient playback buffers.
		p.cache.put(idx, data)
	}
	p.mu.Lock()
	p.played[idx] = true
	p.stats.SegmentsPlayed++
	if source == SourceCDN {
		p.stats.FromCDN++
	} else {
		p.stats.FromP2P++
	}
	p.mu.Unlock()
	if p.cfg.OnSegment != nil {
		p.cfg.OnSegment(key, data, source)
	}
	return nil
}

// fetchSegment applies the hybrid scheduler: CDN during slow start or
// when P2P is unavailable, otherwise P2P with CDN fallback. One session
// decides the whole fetch.
func (p *Peer) fetchSegment(ctx context.Context, key media.SegmentKey) ([]byte, string, error) {
	s := p.session()
	pol := &s.policy
	p2pAllowed := !p.cfg.DisableP2P && pol.P2PEnabled &&
		key.Index >= pol.SlowStartSegments &&
		(!p.cfg.Cellular || pol.CellularDownload)

	// Scheduler decisions land as instants on the segment span, so a
	// stitched trace shows *why* a fetch took the path it did. sp is the
	// zero Span (a no-op) exactly when the peer runs untraced.
	sp, _ := obs.SpanFromContext(ctx)
	if p.cfg.VerifyHashManifest {
		p.loadHashManifest(ctx)
	}
	if p2pAllowed {
		p.mu.Lock()
		first := !p.slowStartExited
		p.slowStartExited = true
		p.mu.Unlock()
		if first {
			p.metrics.slowStartExits.Inc()
			sp.Event("slow_start_exit", obs.A("video", key.Video), obs.A("idx", key.Index))
		}
		p.maintainNeighbors(ctx, s)
		if data, ok := p.fetchFromPeers(ctx, s, key); ok {
			return data, SourceP2P, nil
		}
		p.metrics.cdnFallbacks.Inc()
		sp.Event("cdn_fallback", obs.A("video", key.Video), obs.A("idx", key.Index))
	}
	data, err := p.fetchFromCDN(ctx, key)
	if err != nil {
		return nil, "", err
	}
	reason, hash := p.verifySegment(ctx, s, key, data, SourceCDN)
	if reason != "" {
		// The CDN path is verified too when the provider signs manifests:
		// a hijacked or spoofed CDN origin must not get bytes into the
		// cache or the playback buffer either.
		p.metrics.manifestRejects.Inc()
		sp.Event("manifest_reject", obs.A("video", key.Video), obs.A("idx", key.Index), obs.A("reason", reason))
		return nil, "", fmt.Errorf("pdnclient: CDN segment %v failed signed-manifest verification", key)
	}
	if s.sig != nil && pol.RequireIMChecking && !p.cfg.InsecureNoVerify {
		// The client half of the §V-B peer-assisted IM defense: a peer
		// reports only segments it downloaded directly from the CDN. The
		// hash is the one verification made, when it made one.
		if hash == "" {
			hash = p.imHash(key, data)
		}
		s.sig.ReportIM(signal.IMReport{Key: key, Hash: hash})
	}
	return data, SourceCDN, nil
}

// fetchFromPeers asks connected neighbors for the segment and keeps the
// first answer that passes the checks its source calls for.
func (p *Peer) fetchFromPeers(ctx context.Context, s *session, key media.SegmentKey) ([]byte, bool) {
	sp, _ := obs.SpanFromContext(ctx)
	for _, nb := range p.shuffledNeighbors() {
		data, ok := nb.request(ctx, key)
		if !ok {
			continue
		}
		if !p.consistent(len(data)) {
			// Inconsistent with the manifest's declared bitrate: drop
			// the segment and the peer (the "slow start" detection that
			// defeats direct pollution, §IV-C).
			nb.close()
			continue
		}
		if reason, _ := p.verifySegment(ctx, s, key, data, SourceP2P); reason != "" {
			p.mu.Lock()
			p.stats.IMRejected++
			p.mu.Unlock()
			p.metrics.imRejects.Inc()
			sp.Event("im_reject", obs.A("video", key.Video), obs.A("idx", key.Index), obs.A("reason", reason))
			continue
		}
		p.mu.Lock()
		p.stats.P2PDownBytes += int64(len(data))
		p.mu.Unlock()
		p.metrics.p2pDownBytes.Add(int64(len(data)))
		return data, true
	}
	return nil, false
}

// fetchFromCDN downloads a segment over HTTP. The fetch runs under its
// own cdn_fetch span; httpGet stamps the request's traceparent header
// from it, so the CDN's serve span lands in the same trace (the
// cdn-fallback hop pdntrace breaks out separately).
func (p *Peer) fetchFromCDN(ctx context.Context, key media.SegmentKey) ([]byte, error) {
	ctx, span := p.cfg.Tracer.StartSpan(ctx, "cdn_fetch", obs.A("idx", key.Index))
	url := cdn.SegmentURL(p.cfg.CDNBase, key.Video, key.Rendition, key.Index)
	data, err := p.httpGet(ctx, url)
	span.End(obs.A("ok", err == nil))
	if err != nil {
		return nil, err
	}
	p.mu.Lock()
	p.stats.CDNBytes += int64(len(data))
	p.mu.Unlock()
	p.metrics.cdnBytes.Add(int64(len(data)))
	p.cfg.Meter.OnHTTP(len(data))
	return data, nil
}

// fetchPlaylist retrieves the rendition playlist.
func (p *Peer) fetchPlaylist(ctx context.Context) (*hls.MediaPlaylist, error) {
	url := cdn.PlaylistURL(p.cfg.CDNBase, p.cfg.Video, p.cfg.Rendition)
	body, err := p.httpGet(ctx, url)
	if err != nil {
		return nil, err
	}
	p.cfg.Meter.OnHTTP(len(body))
	return hls.ParseMediaPlaylist(body)
}

// maxHTTPBody bounds one CDN response body.
const maxHTTPBody = 64 << 20

func (p *Peer) httpGet(ctx context.Context, url string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, err
	}
	// Traced fetches carry the active span across the HTTP hop; playlist
	// and manifest requests outside any span send no header.
	if tp := obs.ContextString(ctx); tp != "" {
		req.Header.Set("traceparent", tp)
	}
	resp, err := p.http.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("pdnclient: GET %s: status %d", url, resp.StatusCode)
	}
	// The CDN may be the pollution attacker's: the body is bounded either
	// way, and a declared length is read into a buffer of that size
	// (io.ReadAll regrows to several times the body).
	if n := resp.ContentLength; n >= 0 && n <= maxHTTPBody {
		body := make([]byte, n)
		if _, err := io.ReadFull(resp.Body, body); err != nil {
			return nil, fmt.Errorf("pdnclient: GET %s: %w", url, err)
		}
		return body, nil
	}
	return io.ReadAll(io.LimitReader(resp.Body, maxHTTPBody))
}

// reportStats pushes usage deltas (since the previous report) to the
// signaling server; the server accumulates them into the customer's
// meters.
func (p *Peer) reportStats() {
	p.mu.Lock()
	sig := p.sess.sig
	cur := signal.Stats{
		P2PDownBytes: p.stats.P2PDownBytes,
		P2PUpBytes:   p.stats.P2PUpBytes,
		CDNDownBytes: p.stats.CDNBytes,
	}
	delta := signal.Stats{
		P2PDownBytes: cur.P2PDownBytes - p.reported.P2PDownBytes,
		P2PUpBytes:   cur.P2PUpBytes - p.reported.P2PUpBytes,
		CDNDownBytes: cur.CDNDownBytes - p.reported.CDNDownBytes,
	}
	p.reported = cur
	p.mu.Unlock()
	if sig != nil && (delta.P2PDownBytes != 0 || delta.P2PUpBytes != 0 || delta.CDNDownBytes != 0) {
		sig.SendStats(delta)
	}
}

// teardown closes all connections and waits for helper goroutines.
func (p *Peer) teardown() {
	select {
	case <-p.closed:
	default:
		close(p.closed)
	}
	p.mu.Lock()
	p.draining = true
	sig := p.sess.sig
	nbs := make([]*neighbor, 0, len(p.neighbors))
	for _, nb := range p.neighbors {
		nbs = append(nbs, nb)
	}
	// An answer in flight runs under the Run context, which teardown does
	// not end: cancelled here, it cannot hold Wait below for what is left
	// of connectTimeout.
	for a := range p.attempts {
		a.cancel()
	}
	p.mu.Unlock()
	for _, nb := range nbs {
		nb.close()
	}
	if sig != nil {
		sig.Close()
	}
	p.wg.Wait()
}

// shuffledNeighbors returns the current neighbors in random order.
func (p *Peer) shuffledNeighbors() []*neighbor {
	p.mu.Lock()
	out := make([]*neighbor, 0, len(p.neighbors))
	for _, nb := range p.neighbors {
		out = append(out, nb)
	}
	p.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].id < out[j].id })
	p.rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}
