package battery

import (
	"context"
	"fmt"
	"time"

	"github.com/stealthy-peers/pdnsec/internal/analyzer"
	"github.com/stealthy-peers/pdnsec/internal/attack"
	"github.com/stealthy-peers/pdnsec/internal/capture"
	"github.com/stealthy-peers/pdnsec/internal/chaos"
	"github.com/stealthy-peers/pdnsec/internal/media"
	"github.com/stealthy-peers/pdnsec/internal/mitm"
	"github.com/stealthy-peers/pdnsec/internal/netsim"
	"github.com/stealthy-peers/pdnsec/internal/pdnclient"
	"github.com/stealthy-peers/pdnsec/internal/population"
	"github.com/stealthy-peers/pdnsec/internal/provider"
	"github.com/stealthy-peers/pdnsec/internal/signal"
)

// CrossDomainTest probes whether a stolen credential works from an
// unauthorized context (§IV-B, test 1).
func CrossDomainTest(ctx context.Context, prof provider.Profile) (Verdict, error) {
	v := Verdict{Provider: prof.Name, Risk: RiskCrossDomain, Applicable: true}
	tb, err := newTestbed(ctx, prof, nil)
	if err != nil {
		return v, err
	}
	defer tb.Close()
	host, err := tb.NewViewerHost("US")
	if err != nil {
		return v, err
	}
	stolen := tb.StolenConfig(host, 1)
	ok, err := attack.CrossDomain(ctx, stolen)
	if err != nil {
		return v, err
	}
	v.Vulnerable = ok
	switch {
	case prof.SecretKey:
		v.Detail = "credential not publicly embedded; stolen-key attack has nothing to steal"
	case stolen.Token != "":
		v.Detail = "stolen session token presented for an attacker stream"
	case stolen.APIKey == "":
		v.Detail = "unauthenticated join"
	case ok:
		v.Detail = "stolen API key accepted from attacker origin (no domain allowlist)"
	default:
		v.Detail = "domain allowlist blocked the attacker origin"
	}
	return v, nil
}

// DomainSpoofTest probes whether a MITM'd Origin defeats the allowlist
// (§IV-B, test 2). It applies to key-authenticated (public) providers.
func DomainSpoofTest(ctx context.Context, prof provider.Profile) (Verdict, error) {
	v := Verdict{Provider: prof.Name, Risk: RiskDomainSpoofing, Applicable: prof.Public && !prof.SecretKey}
	if !v.Applicable {
		v.Detail = "no publicly-stealable key to spoof an origin for"
		return v, nil
	}
	tb, err := newTestbed(ctx, prof, nil)
	if err != nil {
		return v, err
	}
	defer tb.Close()
	// Enforce the allowlist even for providers that default it off, as
	// the paper did ("we then enable the domain allowlist protection for
	// all the 3 PDN services").
	if err := tb.Dep.Keys.SetAllowlist(tb.Key, []string{"customer.com"}); err != nil {
		return v, err
	}
	attacker, err := tb.NewViewerHost("US")
	if err != nil {
		return v, err
	}
	proxyHost, err := tb.NewViewerHost("US")
	if err != nil {
		return v, err
	}
	ok, err := attack.DomainSpoof(ctx, tb.StolenConfig(attacker, 1), proxyHost, "customer.com")
	if err != nil {
		return v, err
	}
	v.Vulnerable = ok
	if ok {
		v.Detail = "spoofed Origin/Referer accepted despite enforced allowlist"
	}
	return v, nil
}

// PollutionTest runs the content-integrity battery (§IV-C): the direct
// variant (foreign video, wholesale) or the refined same-size segment
// pollution. A policy override that requires IM checking deploys the
// provider with the defense for §V-B evaluation (NewTestbed's rule).
func PollutionTest(ctx context.Context, prof provider.Profile, sameSize bool, policyOverride *signal.Policy) (Verdict, error) {
	risk := RiskDirectPollution
	if sameSize {
		risk = RiskSegmentPollution
	}
	v := Verdict{Provider: prof.Name, Risk: risk, Applicable: true}

	tb, err := analyzer.NewTestbed(ctx, analyzer.TestbedConfig{
		Profile: prof,
		Video:   analyzer.SmallVideo("bbb", 6, 16<<10),
		Options: provider.Options{Seed: Seed, PolicyOverride: policyOverride},
	})
	if err != nil {
		return v, err
	}
	defer tb.Close()

	pollute := mitm.SameSizePollution([]int{3, 4})
	if !sameSize {
		pollute = mitm.ForeignVideoPollution(analyzer.SmallVideo("attacker-movie", 2, 4<<10), "360p")
	}
	vic, err := tb.Pollution(ctx, pollute)
	if err != nil {
		return v, err
	}
	v.Vulnerable = len(vic.PollutedSegments) > 0
	v.Detail = vic.String()
	return v, nil
}

// IPLeakTest checks whether joining a swarm exposes peers' addresses to
// an arbitrary (attacker-controlled) peer (§IV-D).
func IPLeakTest(ctx context.Context, prof provider.Profile) (Verdict, error) {
	v := Verdict{Provider: prof.Name, Risk: RiskIPLeak, Applicable: true}
	video := analyzer.SmallVideo("bbb", 6, 16<<10)
	tb, err := newTestbed(ctx, prof, video)
	if err != nil {
		return v, err
	}
	defer tb.Close()

	// The "controlled peer" records its own traffic — all an attacker
	// needs.
	attackerHost, err := tb.NewViewerHost("US")
	if err != nil {
		return v, err
	}
	rec := analyzer.RecorderFor(attackerHost)

	acfg := tb.ViewerConfig(attackerHost, 1)
	_, stopSeeder, err := tb.Seeder(ctx, acfg, video.Segments)
	if err != nil {
		return v, err
	}

	// A victim viewer behind NAT in another country joins and connects.
	victimHost, nat, err := tb.NewNATViewerHost("CN", netsim.NATFullCone)
	if err != nil {
		return v, err
	}
	vcfg := tb.ViewerConfig(victimHost, 2)
	if _, err := tb.RunViewer(ctx, vcfg); err != nil {
		return v, err
	}
	stopSeeder()

	ips := capture.HarvestPeerIPs(rec.Packets(), attackerHost.Addr())
	leakedVictim := false
	for _, ip := range ips {
		if ip == nat.ExternalAddr() {
			leakedVictim = true
		}
	}
	v.Vulnerable = leakedVictim
	v.Detail = fmt.Sprintf("controlled peer harvested %d peer IPs from its capture", len(ips))
	return v, nil
}

// ResourceSquattingTest compares a PDN peer's modelled resource use to
// a plain CDN viewer's (§IV-D, Fig. 4). It reports the ratios.
func ResourceSquattingTest(ctx context.Context, prof provider.Profile) (Verdict, error) {
	v := Verdict{Provider: prof.Name, Risk: RiskResourceSquatting, Applicable: true}
	video := analyzer.SmallVideo("bbb", 6, 32<<10)
	tb, err := newTestbed(ctx, prof, video)
	if err != nil {
		return v, err
	}
	defer tb.Close()

	// Control: plain CDN viewer.
	ctrlHost, err := tb.NewViewerHost("US")
	if err != nil {
		return v, err
	}
	ctrlCfg := tb.ViewerConfig(ctrlHost, 1)
	ctrlCfg.DisableP2P = true
	ctrlMeter := analyzer.MeterFor(&ctrlCfg, ctrlHost)
	if _, err := tb.RunViewer(ctx, ctrlCfg); err != nil {
		return v, err
	}

	// PDN pair: a seeder and a later viewer who leeches then serves.
	seedHost, err := tb.NewViewerHost("US")
	if err != nil {
		return v, err
	}
	seedCfg := tb.ViewerConfig(seedHost, 2)
	seedMeter := analyzer.MeterFor(&seedCfg, seedHost)
	_, stopSeeder, err := tb.Seeder(ctx, seedCfg, video.Segments)
	if err != nil {
		return v, err
	}
	leechHost, err := tb.NewViewerHost("GB")
	if err != nil {
		return v, err
	}
	leechCfg := tb.ViewerConfig(leechHost, 3)
	leechMeter := analyzer.MeterFor(&leechCfg, leechHost)
	leechStats, err := tb.RunViewer(ctx, leechCfg)
	if err != nil {
		return v, err
	}
	stopSeeder()

	ctrl := ctrlMeter.Snapshot()
	cpuRatio := avgRatio(ctrl.CPUUnits, leechMeter.Snapshot().CPUUnits, seedMeter.Snapshot().CPUUnits)
	memRatio := avgRatio(float64(ctrl.MemBytes), float64(leechMeter.Snapshot().MemBytes), float64(seedMeter.Snapshot().MemBytes))
	v.Vulnerable = leechStats.FromP2P > 0 && (cpuRatio > 1.02 || memRatio > 1.02)
	v.Detail = fmt.Sprintf("CPU ratio %.2f, memory ratio %.2f vs no-peer control (no consent requested)", cpuRatio, memRatio)
	return v, nil
}

func avgRatio(base float64, vals ...float64) float64 {
	if base == 0 || len(vals) == 0 {
		return 0
	}
	var sum float64
	for _, x := range vals {
		sum += x / base
	}
	return sum / float64(len(vals))
}

// newTestbed deploys prof at the battery's seed; a nil video takes the
// testbed's default.
func newTestbed(ctx context.Context, prof provider.Profile, video *media.Video) (*analyzer.Testbed, error) {
	return analyzer.NewTestbed(ctx, analyzer.TestbedConfig{Profile: prof, Video: video, Options: provider.Options{Seed: Seed}})
}

// JoinProbeTest probes whether the service accepts a peer that presents
// no credential at all (§IV-B). Only the extracted-SDK private provider
// does.
func JoinProbeTest(ctx context.Context, prof provider.Profile) (Verdict, error) {
	v := Verdict{Provider: prof.Name, Risk: RiskJoinProbe, Applicable: true}
	tb, err := newTestbed(ctx, prof, nil)
	if err != nil {
		return v, err
	}
	defer tb.Close()
	host, err := tb.NewViewerHost("US")
	if err != nil {
		return v, err
	}
	ok, err := attack.CrossDomain(ctx, pdnclient.Config{Host: host, SignalAddrs: tb.Dep.SignalAddrs})
	if err != nil {
		return v, err
	}
	v.Vulnerable = ok
	v.Detail = fmt.Sprintf("unauthenticated join accepted=%v", ok)
	return v, nil
}

// identityBudget is the per-host identity budget the hardened policy
// ships; the population tests call an attack successful when the
// adversary got MORE out of the swarm than any budget-respecting host
// could.
func identityBudget() int { return provider.Hardened().Policy.MaxPeersPerHost }

// SybilFloodTest runs a 24-identity mill through the chaos harness and
// counts how many distinct mill identities made it into honest viewers'
// neighbor sets. More than the per-host budget means the matcher let
// one machine squat the swarm's upload slots.
func SybilFloodTest(ctx context.Context, prof provider.Profile) (Verdict, error) {
	v := Verdict{Provider: prof.Name, Risk: RiskSybilFlood, Applicable: true}
	res, err := chaos.RunScenario(ctx, chaos.SwarmConfig{
		Viewers:  10,
		Segments: 4,
		Seed:     Seed,
		Profile:  prof.Name,
	}, chaos.SybilFlood(10*time.Millisecond, 24))
	if err != nil {
		return v, err
	}
	advertised := adversaryNeighbors(res, population.BehaviorSybil)
	share, peak := res.SybilSlotShare()
	v.Vulnerable = advertised > identityBudget()
	v.Detail = fmt.Sprintf("%d distinct mill identities became honest neighbors (budget %d; slot share %.2f, peak %d)",
		advertised, identityBudget(), share, peak)
	return v, nil
}

// FreeRiderWaveTest runs a 16-member single-host leech farm and counts
// farm members that extracted P2P bytes. More than the per-host budget
// means the swarm served a farm no deployed matcher could see.
func FreeRiderWaveTest(ctx context.Context, prof provider.Profile) (Verdict, error) {
	v := Verdict{Provider: prof.Name, Risk: RiskFreeRiderWave, Applicable: true}
	res, err := chaos.RunScenario(ctx, chaos.SwarmConfig{
		Viewers:  10,
		Segments: 8,
		Seed:     Seed,
		Profile:  prof.Name,
	}, chaos.FreeRiderWave(10*time.Millisecond, 16, 0, 0))
	if err != nil {
		return v, err
	}
	leeching := 0
	for _, pv := range res.Viewers {
		if pv.Behavior == population.BehaviorFreeRider && pv.Stats.P2PDownBytes > 0 {
			leeching++
		}
	}
	v.Vulnerable = leeching > identityBudget()
	v.Detail = fmt.Sprintf("%d/16 farm members leeched P2P bytes (budget %d; jain %.3f)",
		leeching, identityBudget(), res.JainFairness())
	return v, nil
}

// adversaryNeighbors counts the distinct peers of the given behavior
// that appear in any honest viewer's neighbor set over the run.
func adversaryNeighbors(res *chaos.Result, b population.Behavior) int {
	mill := make(map[string]bool)
	for _, v := range res.Viewers {
		if v.Behavior == b && v.Peer != nil {
			if id := v.Peer.ID(); id != "" {
				mill[id] = true
			}
		}
	}
	seen := make(map[string]bool)
	for _, v := range res.Viewers {
		if !v.Honest() || v.Peer == nil {
			continue
		}
		for _, id := range v.Peer.NeighborIDs() {
			if mill[id] {
				seen[id] = true
			}
		}
	}
	return len(seen)
}
