// Package provider defines the PDN provider profiles the study targets
// and deploys them as running services on the simulated network.
//
// The paper analyzed three public providers (Peer5, Streamroot, Viblast)
// and several private ones (Mango TV, Tencent Video, plus the Microsoft
// eCDN successor of Peer5). Those services differ in precisely the
// properties the attacks probe: pricing plan, whether a domain allowlist
// is enforced by default, whether session tokens bind to the video
// source, whether any credential is required at all, and the SDK's
// cellular-data policy. Profile captures each of those as data; Deploy
// turns a profile into a live signaling server + key registry + STUN
// server on a netsim network.
//
// The profile names are kept as the paper's provider names purely as
// labels for reproducing its tables; the behaviours are re-implementations
// of the *mechanisms* the paper describes, not of any vendor's code.
package provider

import (
	"context"
	"crypto/rand"
	"fmt"
	"net/netip"
	"time"

	"github.com/stealthy-peers/pdnsec/internal/auth"
	"github.com/stealthy-peers/pdnsec/internal/defense"
	"github.com/stealthy-peers/pdnsec/internal/federation"
	"github.com/stealthy-peers/pdnsec/internal/geoip"
	"github.com/stealthy-peers/pdnsec/internal/ice"
	"github.com/stealthy-peers/pdnsec/internal/netsim"
	"github.com/stealthy-peers/pdnsec/internal/obs"
	"github.com/stealthy-peers/pdnsec/internal/secure"
	"github.com/stealthy-peers/pdnsec/internal/signal"
)

// Signatures are the fingerprints the detector scans for (§III-C):
// URL patterns in pages, SDK namespaces in APKs, and Android manifest
// metadata keys.
type Signatures struct {
	URLPatterns  []string `json:"url_patterns"`
	Namespaces   []string `json:"namespaces"`
	ManifestKeys []string `json:"manifest_keys"`
}

// Profile is a static description of one PDN service.
type Profile struct {
	// Name identifies the provider, e.g. "peer5".
	Name string
	// Public marks commercial multi-tenant services (vs private ad-hoc
	// ones dedicated to a single platform).
	Public bool
	// Plan is the billing model (public providers only).
	Plan auth.Plan
	// AllowlistByDefault reports whether new keys get a domain
	// allowlist out of the box. Only Viblast required one.
	AllowlistByDefault bool
	// TokenTTL, when positive, makes viewers authenticate with signed
	// session tokens the customer's server issues (Deployment.IssueToken)
	// — the private providers' credential, and with TokenBindsVideo and
	// TokenUsageLimit the §V-A disposable video-binding JWT. TokenBindsVideo
	// ties a token to its video source URL (Tencent's tokens did not);
	// TokenUsageLimit caps how many joins one token admits (0: unlimited).
	TokenTTL        time.Duration
	TokenBindsVideo bool
	TokenUsageLimit int
	// RequireAuth is false for services that accept unauthenticated
	// peers (the extracted Mango TV SDK imposed no constraint).
	RequireAuth bool
	// SecretKey marks services whose credential is not publicly
	// embedded (Microsoft eCDN uses the enterprise tenant ID), which
	// defeats key theft.
	SecretKey bool
	// Policy is the SDK policy delivered to peers.
	Policy signal.Policy
	// Signatures fingerprint the provider's SDK for the detector.
	Signatures Signatures
}

// Peer5 models the most widely deployed public provider: per-traffic
// billing, no allowlist by default.
func Peer5() Profile {
	return Profile{
		Name:   "peer5",
		Public: true,
		Plan:   auth.PlanPerTraffic,
		Policy: signal.DefaultPolicy(),
		Signatures: Signatures{
			URLPatterns:  []string{"api.peer5.com/peer5.js?id="},
			Namespaces:   []string{"com.peer5.sdk"},
			ManifestKeys: []string{"com.peer5.ApiKey"},
		},
	}
}

// Streamroot models the second public provider: per-traffic billing, no
// allowlist by default.
func Streamroot() Profile {
	return Profile{
		Name:   "streamroot",
		Public: true,
		Plan:   auth.PlanPerTraffic,
		Policy: signal.DefaultPolicy(),
		Signatures: Signatures{
			URLPatterns:  []string{"cdn.streamroot.io/dna-bundle.js"},
			Namespaces:   []string{"io.streamroot.dna"},
			ManifestKeys: []string{"io.streamroot.dna.StreamrootKey"},
		},
	}
}

// Viblast models the third public provider: per-viewer-hour billing and
// a mandatory domain allowlist (which still falls to domain spoofing).
func Viblast() Profile {
	return Profile{
		Name:               "viblast",
		Public:             true,
		Plan:               auth.PlanPerViewerHour,
		AllowlistByDefault: true,
		Policy:             signal.DefaultPolicy(),
		Signatures: Signatures{
			URLPatterns:  []string{"viblast.com/player/viblast.js"},
			Namespaces:   []string{"com.viblast.android"},
			ManifestKeys: []string{"com.viblast.LicenseKey"},
		},
	}
}

// MangoPrivate models the private PDN whose player SDK the paper
// extracted and free-rode "with no constraints".
func MangoPrivate() Profile {
	return Profile{
		Name:        "mango-private",
		RequireAuth: false,
		TokenTTL:    time.Minute,
		Policy:      signal.DefaultPolicy(),
		Signatures: Signatures{
			URLPatterns: []string{"signal.api.mgtv-sim.test/ws"},
		},
	}
}

// TencentPrivate models the private PDN whose session token does not
// bind to the video source URL.
func TencentPrivate() Profile {
	return Profile{
		Name:            "tencent-private",
		RequireAuth:     true,
		TokenTTL:        time.Minute,
		TokenBindsVideo: false,
		Policy:          signal.DefaultPolicy(),
		Signatures: Signatures{
			URLPatterns: []string{"webrtcpunch.video.qq-sim.test"},
		},
	}
}

// StrictPrivate models a private PDN with video-bound tokens, the
// strongest deployed authentication the paper encountered.
func StrictPrivate() Profile {
	return Profile{
		Name:            "strict-private",
		RequireAuth:     true,
		TokenTTL:        time.Minute,
		TokenBindsVideo: true,
		Policy:          signal.DefaultPolicy(),
		Signatures: Signatures{
			URLPatterns: []string{"tracker.strict-sim.test/webrtc"},
		},
	}
}

// ECDN models Microsoft eCDN after the Peer5 acquisition: the tenant-ID
// credential is never published, defeating free riding, but segment
// integrity is still unverified (§VI).
func ECDN() Profile {
	p := signal.DefaultPolicy()
	return Profile{
		Name:      "ecdn",
		Public:    true,
		Plan:      auth.PlanPerTraffic,
		SecretKey: true,
		Policy:    p,
		Signatures: Signatures{
			URLPatterns: []string{"ecdn.microsoft-sim.test/sdk.js"},
		},
	}
}

// Hardened models a §V-hardened deployment: disposable video-binding
// JWT authentication, IM checking required, geo-constrained matching,
// and a per-session upload budget — every mitigation the paper
// proposes, composed. Its policy demands a SIM for every P2P segment,
// so it needs Options.IM set to a defense.IMChecker to stream over P2P
// at all (analyzer.NewTestbed deploys one).
func Hardened() Profile {
	pol := signal.DefaultPolicy()
	pol.RequireIMChecking = true
	pol.GeoMatchCountry = true
	pol.MaxUploadBytes = 512 << 20
	// Identity budget per client address: quarantines Sybil identity
	// mills and single-host leech farms (§IV resource squatting), which
	// the per-identity matcher the deployed services ship cannot see.
	pol.MaxPeersPerHost = 2
	return Profile{
		Name:            "hardened",
		RequireAuth:     true,
		TokenTTL:        time.Minute,
		TokenBindsVideo: true,
		TokenUsageLimit: 3,
		Policy:          pol,
		Signatures: Signatures{
			URLPatterns: []string{"hardened-pdn-sim.test/sdk.js"},
		},
	}
}

// Secure models the counterfactual deployment the paper's §VI gap
// analysis implies but no provider ships: everything in Hardened plus
// an authenticated peer transport (internal/secure) — matcher-vouched
// static keys, a Noise-IK-style handshake, AEAD records, and signed
// per-segment manifests verified before any byte is cached or played.
// Deploy stamps the policy with the transport authority's key; pair it
// with Options.IM set to an authority over the CDN origin's segments
// (defense.NewIMAuthority(origin.Segment)) so peers get signed manifests
// for the CDN path too, signed over the bytes the origin serves
// (analyzer.NewTestbed does).
func Secure() Profile {
	p := Hardened()
	p.Name = "secure"
	p.Policy.SecureTransport = true
	p.Signatures = Signatures{
		URLPatterns: []string{"secure-pdn-sim.test/sdk.js"},
	}
	return p
}

// PublicProfiles returns the three public providers in the paper's
// table order.
func PublicProfiles() []Profile {
	return []Profile{Peer5(), Streamroot(), Viblast()}
}

// AllProfiles returns every modelled provider.
func AllProfiles() []Profile {
	return append(PublicProfiles(), MangoPrivate(), TencentPrivate(), StrictPrivate(), ECDN(), Hardened(), Secure())
}

// Deployment is a provider profile running on a simulated network.
type Deployment struct {
	Profile Profile
	Keys    *auth.Registry
	// Tokens is the token authority of a TokenTTL profile (nil
	// otherwise): the signaling plane validates against it, and IssueToken
	// mints viewer tokens from it in the customer server's role.
	Tokens *defense.TokenAuthority
	// Plane is the federated signaling plane — a ring of
	// Options.Servers signal.Server instances (one, unless federated).
	Plane *federation.Plane

	// SignalAddrs and STUNAddr are the service endpoints peers use.
	// SignalAddrs lists every signaling server, the first on Deploy's
	// host — the seed list clients bootstrap from.
	SignalAddrs []netip.AddrPort
	STUNAddr    netip.AddrPort

	stunCancel context.CancelFunc
	stunConn   *netsim.PacketConn
}

// PeerCount sums connected peers across the plane's live servers.
func (d *Deployment) PeerCount() int { return d.Plane.PeerCount() }

// Options tweaks a deployment beyond its profile defaults.
type Options struct {
	// GeoDB enables server-side geolocation (needed for geo matching).
	GeoDB *geoip.DB
	// IM installs the integrity-checking defense.
	IM signal.IMService
	// PolicyOverride, when non-nil, replaces the profile policy.
	PolicyOverride *signal.Policy
	// Seed drives peer matching.
	Seed int64
	// Shards stripes the signaling server's swarm state (see
	// signal.Config.Shards). Zero keeps the single-stripe layout.
	Shards int
	// Servers federates the signaling plane across this many servers
	// joined by a consistent-hash ring (zero or one deploys the classic
	// single server — same code path, ring of one).
	Servers int
	// SignalHosts carries the hosts for servers beyond the first when
	// Servers > 1; it must hold exactly Servers-1 entries. The first
	// server always lives on Deploy's host argument.
	SignalHosts []*netsim.Host
	// Obs forwards to the signaling server's instrumentation; nil
	// disables it.
	Obs *obs.Registry
	// Traces, when set, gives each federated server its own
	// process-stamped tracer (keyed "s0", "s1", ...) so multi-server
	// traces stay attributable.
	Traces *obs.TraceSet
}

// Deploy starts the provider's signaling and STUN services on the given
// host (ports 443 and 3478). ctx bounds the deployment's background
// services: cancelling it stops the STUN responder (Close does too).
func Deploy(ctx context.Context, p Profile, host *netsim.Host, opts Options) (*Deployment, error) {
	d := &Deployment{Profile: p}

	var keys *auth.Registry
	if p.Public {
		keys = auth.NewRegistry(p.Plan)
	}
	var validator signal.TokenValidator
	if p.TokenTTL > 0 {
		var secret [32]byte
		if _, err := rand.Read(secret[:]); err != nil {
			return nil, fmt.Errorf("provider %s: token secret: %w", p.Name, err)
		}
		d.Tokens = defense.NewTokenAuthority(secret[:])
		validator = d.Tokens
	}
	policy := p.Policy
	if opts.PolicyOverride != nil {
		policy = *opts.PolicyOverride
	}
	var secureSvc signal.SecureService
	if policy.SecureTransport {
		ta, err := secure.NewTransportAuthority()
		if err != nil {
			return nil, fmt.Errorf("provider %s: transport authority: %w", p.Name, err)
		}
		secureSvc = ta
		policy.TransportPubKey = ta.PublicKeyHex()
	}
	// An authority-built IM service advertises a manifest verification
	// key; stamped into the policy it turns on client-side signature
	// verification for every segment source. A panel-built one advertises
	// none, and CDN segments stay exempt.
	if im, ok := opts.IM.(*defense.IMChecker); ok && policy.ManifestPubKey == "" {
		policy.ManifestPubKey = im.ManifestPublicKeyHex()
	}
	servers := opts.Servers
	if servers <= 0 {
		servers = 1
	}
	if len(opts.SignalHosts) != servers-1 {
		return nil, fmt.Errorf("provider %s: %d signal hosts for %d servers", p.Name, len(opts.SignalHosts), servers)
	}
	plane := federation.NewPlane(federation.PlaneConfig{
		Servers: servers,
		Base: signal.Config{
			Keys:        keys,
			Tokens:      validator,
			RequireAuth: p.RequireAuth || p.Public,
			Policy:      policy,
			GeoDB:       opts.GeoDB,
			IM:          opts.IM,
			Secure:      secureSvc,
			Seed:        opts.Seed,
			Shards:      opts.Shards,
			Obs:         opts.Obs,
		},
		Traces: opts.Traces,
	})
	hosts := append([]*netsim.Host{host}, opts.SignalHosts...)
	if err := plane.Serve(hosts, 443); err != nil {
		plane.Close()
		return nil, fmt.Errorf("provider %s: %w", p.Name, err)
	}

	pc, err := host.ListenPacket(3478)
	if err != nil {
		plane.Close()
		return nil, fmt.Errorf("provider %s: stun: %w", p.Name, err)
	}
	stunCtx, cancel := context.WithCancel(ctx)
	go ice.ServeSTUN(stunCtx, pc)

	d.Keys = keys
	d.Plane = plane
	d.SignalAddrs = plane.Addrs()
	d.STUNAddr = netip.AddrPortFrom(host.VisibleAddr(), 3478)
	d.stunCancel = cancel
	d.stunConn = pc
	return d, nil
}

// IssueKey registers a customer with the provider, applying the
// profile's allowlist default, and returns the API key the customer
// would embed in its pages.
func (d *Deployment) IssueKey(customerDomain string) string {
	if d.Keys == nil {
		return ""
	}
	var allow []string
	if d.Profile.AllowlistByDefault {
		allow = []string{customerDomain}
	}
	return d.Keys.Issue(customerDomain, allow)
}

// IssueToken mints a session token for a viewer of the given video
// source (the customer server's role in §V-A), with the profile's TTL
// and usage limit. It binds the token to videoURL only when the profile
// binds tokens to videos; otherwise the token validates for any stream.
func (d *Deployment) IssueToken(peerID, videoURL string) (string, error) {
	if d.Tokens == nil {
		return "", fmt.Errorf("provider %s: profile issues no tokens", d.Profile.Name)
	}
	tok := defense.PDNToken{
		CustomerID: "customer.com",
		PDNPeerID:  peerID,
		TTL:        int64(d.Profile.TokenTTL / time.Second),
		UsageLimit: d.Profile.TokenUsageLimit,
	}
	if d.Profile.TokenBindsVideo {
		tok.VideoIDs = []string{videoURL}
	}
	return d.Tokens.Issue(tok)
}

// Close stops the deployment's services.
func (d *Deployment) Close() error {
	if d.stunCancel != nil {
		d.stunCancel()
	}
	if d.stunConn != nil {
		d.stunConn.Close()
	}
	if d.Plane != nil {
		return d.Plane.Close()
	}
	return nil
}
