// Package analyzer implements the paper's PDN analyzer (Fig. 2): an
// automatic framework that deploys a PDN service in a controlled
// environment, runs peers (honest, malicious, instrumented) against it,
// intercepts and modifies their traffic, and decides from captures,
// meters, and ground-truth checks whether each studied risk is present.
//
// Where the paper ran each peer as a Docker container with a web driver
// and a proxy client, the reproduction runs each peer as a pdnclient
// instance on its own simulated host, with capture taps standing in for
// tcpdump and the monitor package standing in for the Docker stats API.
package analyzer

import (
	"fmt"
	"net/netip"
	"sync"
	"time"

	"github.com/stealthy-peers/pdnsec/internal/capture"
	"github.com/stealthy-peers/pdnsec/internal/cdn"
	"github.com/stealthy-peers/pdnsec/internal/defense"
	"github.com/stealthy-peers/pdnsec/internal/geoip"
	"github.com/stealthy-peers/pdnsec/internal/media"
	"github.com/stealthy-peers/pdnsec/internal/monitor"
	"github.com/stealthy-peers/pdnsec/internal/netsim"
	"github.com/stealthy-peers/pdnsec/internal/obs"
	"github.com/stealthy-peers/pdnsec/internal/pdnclient"
	"github.com/stealthy-peers/pdnsec/internal/population"
	"github.com/stealthy-peers/pdnsec/internal/provider"
	"github.com/stealthy-peers/pdnsec/internal/signal"
)

// Fixed testbed addresses.
var (
	cdnIP    = netip.MustParseAddr("93.184.216.34")
	signalIP = netip.MustParseAddr("44.1.1.1")
	fakeIP   = netip.MustParseAddr("13.13.13.13")
	turnIP   = netip.MustParseAddr("50.50.50.50")
)

// TestbedConfig parameterizes a deployment.
type TestbedConfig struct {
	// Profile selects the provider under test.
	Profile provider.Profile
	// Video is the stream (defaults to a small 8-segment VOD).
	Video *media.Video
	// CustomerDomain is the legitimate customer (defaults to
	// "customer.com").
	CustomerDomain string
	// GeoDB geolocates peers; nil uses the default plan.
	GeoDB *geoip.DB
	// Options forwards provider deployment options (policy override,
	// seed). Options.IM left nil deploys the integrity service the
	// effective policy calls for.
	Options provider.Options
	// Latency configures per-host access latency for timing-sensitive
	// experiments.
	Latency time.Duration
	// Obs, when set, registers every testbed component's metrics in one
	// shared registry (the aggregation cmd/pdnserve exposes live).
	Obs *obs.Registry
	// Traces, when set, hands every component a process-stamped tracer
	// from one set sharing a clock and seed: the CDN serves as "cdn",
	// federated signal servers as "s0", "s1", ..., and each viewer built
	// through ViewerConfig as "viewer-<seed>". It is what makes the
	// written JSONL stitchable by cmd/pdntrace — every span says which
	// process recorded it.
	Traces *obs.TraceSet
}

// Testbed is a running PDN deployment plus helpers to place peers on it.
type Testbed struct {
	Net     *netsim.Network
	CDN     *cdn.Server
	CDNBase string
	Dep     *provider.Deployment
	Video   *media.Video
	Key     string // customer API key ("" for private providers)
	GeoDB   *geoip.DB
	Alloc   *geoip.Allocator
	Obs     *obs.Registry
	Traces  *obs.TraceSet
	// IM is the integrity service NewTestbed deployed because the policy
	// called for one; nil when it called for none or Options.IM was set.
	IM *defense.IMChecker
	// CDNHost and SignalHost expose the infrastructure machines so chaos
	// scenarios can impair or crash them. SignalHost is the first
	// signaling server's host; SignalHosts lists every federated
	// server's host in plane order.
	CDNHost     *netsim.Host
	SignalHost  *netsim.Host
	SignalHosts []*netsim.Host

	customerDomain string
	latency        time.Duration
	closers        []func()

	// bandHosts holds the one machine each single-host adversarial band
	// (Sybil mill, leech farm) runs all its identities from.
	bandMu    sync.Mutex
	bandHosts map[population.Behavior]*netsim.Host
}

// SmallVideo builds a test asset whose declared bandwidth matches its
// actual segment size (so the SDK's consistency check is meaningful).
func SmallVideo(id string, segments, segBytes int) *media.Video {
	return &media.Video{
		ID:              id,
		Renditions:      []media.Rendition{{Name: "360p", Bandwidth: segBytes * 8 / 10, SegmentBytes: segBytes}},
		Segments:        segments,
		SegmentDuration: 10,
	}
}

// SmallLiveVideo builds a live test asset with a sliding playlist
// window. segDur is in seconds; chaos scenarios use tiny durations so
// the live edge advances at simulation speed, and the declared
// bandwidth is kept consistent with the segment size as in SmallVideo.
func SmallLiveVideo(id string, segBytes int, segDur float64) *media.Video {
	return &media.Video{
		ID:              id,
		Live:            true,
		Renditions:      []media.Rendition{{Name: "360p", Bandwidth: int(float64(segBytes) * 8 / segDur), SegmentBytes: segBytes}},
		SegmentDuration: segDur,
	}
}

// NewTestbed deploys the provider, CDN, and video. ctx bounds the
// deployment's background services (the provider's STUN responder).
func NewTestbed(ctx ctxT, cfg TestbedConfig) (*Testbed, error) {
	if cfg.Video == nil {
		cfg.Video = SmallVideo("bbb", 8, 16<<10)
	}
	if cfg.CustomerDomain == "" {
		cfg.CustomerDomain = "customer.com"
	}
	db := cfg.GeoDB
	if db == nil {
		db = geoip.NewDB()
	}
	if cfg.Options.GeoDB == nil {
		cfg.Options.GeoDB = db
	}
	if cfg.Options.Obs == nil {
		cfg.Options.Obs = cfg.Obs
	}
	if cfg.Options.Traces == nil {
		cfg.Options.Traces = cfg.Traces
	}
	n := netsim.New(netsim.Config{})
	tb := &Testbed{
		Net:            n,
		Video:          cfg.Video,
		GeoDB:          db,
		Alloc:          geoip.NewAllocator(db, cfg.Options.Seed+1),
		Obs:            cfg.Obs,
		Traces:         cfg.Traces,
		customerDomain: cfg.CustomerDomain,
		latency:        cfg.Latency,
		bandHosts:      make(map[population.Behavior]*netsim.Host),
	}

	cdnHost, err := n.NewHost(cdnIP)
	if err != nil {
		return nil, err
	}
	tb.CDNHost = cdnHost
	tb.CDN = cdn.New()
	tb.CDN.Instrument(cfg.Obs)
	if cfg.Traces != nil {
		tb.CDN.SetTracer(cfg.Traces.Tracer("cdn"))
	}
	tb.CDN.Register(cfg.Video)
	if err := tb.CDN.Serve(cdnHost, 80); err != nil {
		return nil, err
	}
	tb.closers = append(tb.closers, func() { tb.CDN.Close() })
	tb.CDNBase = "http://" + cdnIP.String() + ":80"

	if cfg.Options.IM == nil {
		if tb.IM, err = integrityService(cfg, tb.CDN); err != nil {
			tb.Close()
			return nil, err
		}
		if tb.IM != nil {
			cfg.Options.IM = tb.IM
		}
	}

	sigHost, err := n.NewHost(signalIP)
	if err != nil {
		tb.Close()
		return nil, err
	}
	tb.SignalHost = sigHost
	tb.SignalHosts = []*netsim.Host{sigHost}
	// A federated deployment (Options.Servers > 1) gets one host per
	// extra server at consecutive addresses after signalIP.
	if cfg.Options.Servers > 1 && len(cfg.Options.SignalHosts) == 0 {
		ip := signalIP
		for i := 1; i < cfg.Options.Servers; i++ {
			ip = ip.Next()
			h, err := n.NewHost(ip)
			if err != nil {
				tb.Close()
				return nil, err
			}
			cfg.Options.SignalHosts = append(cfg.Options.SignalHosts, h)
			tb.SignalHosts = append(tb.SignalHosts, h)
		}
	}
	dep, err := provider.Deploy(ctx, cfg.Profile, sigHost, cfg.Options)
	if err != nil {
		tb.Close()
		return nil, err
	}
	tb.Dep = dep
	tb.closers = append(tb.closers, func() { dep.Close() })
	if cfg.Profile.Public {
		tb.Key = dep.IssueKey(cfg.CustomerDomain)
	}
	return tb, nil
}

// integrityService builds what the deployment's effective policy calls
// for, nil when that is nothing. Either trust source reads segment bytes
// from the testbed's CDN origin, the one ground-truth reader: secure
// transport gets the provider as authority, signing per-segment
// manifests of what the origin serves (Deploy stamps the key into the
// policy so viewers check every byte against it); IM checking alone gets
// the §V-B panel, two reporters arbitrated against the same origin.
func integrityService(cfg TestbedConfig, origin *cdn.Server) (*defense.IMChecker, error) {
	policy := cfg.Profile.Policy
	if cfg.Options.PolicyOverride != nil {
		policy = *cfg.Options.PolicyOverride
	}
	switch {
	case policy.SecureTransport:
		return defense.NewIMAuthority(origin.Segment)
	case policy.RequireIMChecking:
		return defense.NewIMChecker(defense.IMConfig{Reporters: 2, FetchCDN: origin.Segment})
	}
	return nil, nil
}

// Close tears the testbed down.
func (tb *Testbed) Close() {
	for i := len(tb.closers) - 1; i >= 0; i-- {
		tb.closers[i]()
	}
	tb.closers = nil
}

// NewViewerHost places a public viewer host in the given country.
func (tb *Testbed) NewViewerHost(country string) (*netsim.Host, error) {
	ip, err := tb.Alloc.Alloc(country)
	if err != nil {
		return nil, err
	}
	h, err := tb.Net.NewHost(ip)
	if err != nil {
		return nil, err
	}
	if tb.latency > 0 {
		h.SetLatency(tb.latency)
	}
	return h, nil
}

// NewNATViewerHost places a viewer behind a fresh NAT of the given type
// in the given country. The NAT's external address is geo-allocated;
// the host's address is private.
func (tb *Testbed) NewNATViewerHost(country string, typ netsim.NATType) (*netsim.Host, *netsim.NAT, error) {
	ext, err := tb.Alloc.Alloc(country)
	if err != nil {
		return nil, nil, err
	}
	nat, err := tb.Net.NewNAT(ext, typ)
	if err != nil {
		return nil, nil, err
	}
	h, err := nat.NewHost(tb.Alloc.AllocPrivate())
	if err != nil {
		return nil, nil, err
	}
	if tb.latency > 0 {
		h.SetLatency(tb.latency)
	}
	return h, nat, nil
}

// ViewerConfig returns a pdnclient config for an honest viewer of the
// testbed's stream from the given host, authenticated as the
// legitimate customer.
func (tb *Testbed) ViewerConfig(host *netsim.Host, seed int64) pdnclient.Config {
	cfg := pdnclient.Config{
		Host:        host,
		Network:     tb.Net,
		SignalAddr:  tb.Dep.SignalAddr,
		SignalAddrs: tb.Dep.SignalAddrs,
		STUNAddr:    tb.Dep.STUNAddr,
		CDNBase:     tb.CDNBase,
		Video:       tb.Video.ID,
		Rendition:   tb.Video.Renditions[0].Name,
		Seed:        seed,
		Obs:         tb.Obs,
		// An honest viewer of a secure-profile deployment ships the pinned
		// SDK build: it refuses welcomes a MITM stripped the transport from.
		RequireSecureTransport: tb.Dep.Profile.Policy.SecureTransport,
	}
	if tb.Traces != nil {
		cfg.Tracer = tb.Traces.Tracer(fmt.Sprintf("viewer-%d", seed))
	}
	switch {
	case tb.Key != "":
		cfg.APIKey = tb.Key
		cfg.Origin = "https://" + tb.customerDomain
	case tb.Dep.Tokens != nil:
		videoURL := cdn.MasterURL(tb.CDNBase, tb.Video.ID)
		if tok, err := tb.Dep.IssueToken(fmt.Sprintf("viewer-%d", seed), videoURL); err == nil {
			cfg.Token = tok
			cfg.VideoURL = videoURL
		}
	}
	return cfg
}

// StolenConfig is what a page-scraping attacker holds for the testbed's
// stream, on its own host: a viewer's config, credential included —
// except that a credential the customer never publishes (eCDN's tenant
// ID) can only be guessed.
func (tb *Testbed) StolenConfig(host *netsim.Host, seed int64) pdnclient.Config {
	cfg := tb.ViewerConfig(host, seed)
	if tb.Dep.Profile.SecretKey {
		cfg.APIKey = "guessed-tenant"
	}
	return cfg
}

// RunViewer constructs and runs a viewer to completion under a
// testbed-scoped timeout derived from ctx.
func (tb *Testbed) RunViewer(ctx ctxT, cfg pdnclient.Config) (pdnclient.Stats, error) {
	p, err := pdnclient.New(cfg)
	if err != nil {
		return pdnclient.Stats{}, err
	}
	rctx, cancel := timeoutCtx(ctx)
	defer cancel()
	return p.Run(rctx)
}

// Seeder starts a lingering viewer that plays everything and then
// serves the swarm. It returns the peer and a stop function that ends
// the linger and waits for completion.
func (tb *Testbed) Seeder(ctx ctxT, cfg pdnclient.Config, segments int) (*pdnclient.Peer, func() pdnclient.Stats, error) {
	cfg.MaxSegments = segments
	cfg.Linger = 5 * time.Minute
	p, err := pdnclient.New(cfg)
	if err != nil {
		return nil, nil, err
	}
	rctx, cancel := timeoutCtx(ctx)
	done := make(chan pdnclient.Stats, 1)
	go func() {
		st, _ := p.Run(rctx)
		done <- st
	}()
	timeout := time.NewTimer(30 * time.Second)
	defer timeout.Stop()
	tick := time.NewTicker(10 * time.Millisecond)
	defer tick.Stop()
	for waiting := true; waiting; {
		if st := p.Stats(); st.SegmentsPlayed >= segments {
			stop := func() pdnclient.Stats {
				p.StopLinger()
				st := <-done
				cancel()
				return st
			}
			return p, stop, nil
		}
		select {
		case <-timeout.C:
			waiting = false
		case <-rctx.Done():
			waiting = false
		case <-tick.C:
		}
	}
	cancel()
	<-done
	return nil, nil, fmt.Errorf("analyzer: seeder failed to finish (played %d/%d)", p.Stats().SegmentsPlayed, segments)
}

// MeterFor attaches a fresh meter to a config and returns it.
func MeterFor(cfg *pdnclient.Config, host *netsim.Host) *monitor.Meter {
	m := monitor.NewMeter(monitor.DefaultCostModel(), host)
	cfg.Meter = m
	return m
}

// RecorderFor taps a host with an unbounded capture recorder.
func RecorderFor(host *netsim.Host) *capture.Recorder {
	rec := capture.NewRecorder(0)
	host.AddTap(rec.Tap)
	return rec
}

// FakeCDNIP returns the canonical attacker fake-CDN address.
func FakeCDNIP() netip.Addr { return fakeIP }

// TURNIP returns the canonical TURN relay address.
func TURNIP() netip.Addr { return turnIP }

// DefaultPolicyWithIM returns the default policy with integrity
// checking required (for defense-enabled deployments).
func DefaultPolicyWithIM() *signal.Policy {
	p := signal.DefaultPolicy()
	p.RequireIMChecking = true
	return &p
}

func timeoutCtx(parent ctxT) (ctxT, func()) { return newTimeoutCtx(parent, 2*time.Minute) }
