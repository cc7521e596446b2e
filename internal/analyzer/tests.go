package analyzer

import (
	"context"
	"fmt"

	"github.com/stealthy-peers/pdnsec/internal/attack"
	"github.com/stealthy-peers/pdnsec/internal/capture"
	"github.com/stealthy-peers/pdnsec/internal/mitm"
	"github.com/stealthy-peers/pdnsec/internal/netsim"
	"github.com/stealthy-peers/pdnsec/internal/obs"
	"github.com/stealthy-peers/pdnsec/internal/provider"
	"github.com/stealthy-peers/pdnsec/internal/signal"
)

// Risk identifiers, matching Table V's rows.
const (
	RiskCrossDomain       = "cross-domain"
	RiskDomainSpoofing    = "domain-spoofing"
	RiskDirectPollution   = "direct-pollution"
	RiskSegmentPollution  = "segment-pollution"
	RiskIPLeak            = "ip-leak"
	RiskResourceSquatting = "resource-squatting"
)

// AllRisks lists the battery in Table V order.
func AllRisks() []string {
	return []string{
		RiskCrossDomain, RiskDomainSpoofing,
		RiskDirectPollution, RiskSegmentPollution,
		RiskIPLeak, RiskResourceSquatting,
	}
}

// Verdict is one security test's outcome against one provider.
type Verdict struct {
	Provider   string `json:"provider"`
	Risk       string `json:"risk"`
	Applicable bool   `json:"applicable"`
	Vulnerable bool   `json:"vulnerable"`
	Detail     string `json:"detail"`
}

// RunRisk executes one named risk test against a provider profile. A
// tracer carried in ctx (obs.WithTracer) records each test as a span;
// the package itself never constructs tracers or reads clocks.
func RunRisk(ctx context.Context, prof provider.Profile, risk string) (Verdict, error) {
	span := obs.FromContext(ctx).Begin("analyzer_risk", obs.A("provider", prof.Name), obs.A("risk", risk))
	v, err := runRisk(ctx, prof, risk)
	span.End(obs.A("applicable", v.Applicable), obs.A("vulnerable", v.Vulnerable))
	return v, err
}

func runRisk(ctx context.Context, prof provider.Profile, risk string) (Verdict, error) {
	switch risk {
	case RiskCrossDomain:
		return CrossDomainTest(ctx, prof)
	case RiskDomainSpoofing:
		return DomainSpoofTest(ctx, prof)
	case RiskDirectPollution:
		return PollutionTest(ctx, prof, false, nil)
	case RiskSegmentPollution:
		return PollutionTest(ctx, prof, true, nil)
	case RiskIPLeak:
		return IPLeakTest(ctx, prof)
	case RiskResourceSquatting:
		return ResourceSquattingTest(ctx, prof)
	default:
		return Verdict{}, fmt.Errorf("analyzer: unknown risk %q", risk)
	}
}

// RunAll executes the full battery against a provider (one Table V
// column).
func RunAll(ctx context.Context, prof provider.Profile) ([]Verdict, error) {
	out := make([]Verdict, 0, len(AllRisks()))
	for _, risk := range AllRisks() {
		v, err := RunRisk(ctx, prof, risk)
		if err != nil {
			return out, fmt.Errorf("analyzer: %s/%s: %w", prof.Name, risk, err)
		}
		out = append(out, v)
	}
	return out, nil
}

// CrossDomainTest probes whether a stolen credential works from an
// unauthorized context (§IV-B, test 1).
func CrossDomainTest(ctx context.Context, prof provider.Profile) (Verdict, error) {
	v := Verdict{Provider: prof.Name, Risk: RiskCrossDomain, Applicable: true}
	tb, err := NewTestbed(ctx, TestbedConfig{Profile: prof})
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
	tb, err := NewTestbed(ctx, TestbedConfig{Profile: prof})
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

	tb, err := NewTestbed(ctx, TestbedConfig{
		Profile: prof,
		Video:   SmallVideo("bbb", 6, 16<<10),
		Options: provider.Options{Seed: 11, PolicyOverride: policyOverride},
	})
	if err != nil {
		return v, err
	}
	defer tb.Close()

	pollute := mitm.SameSizePollution([]int{3, 4})
	if !sameSize {
		pollute = mitm.ForeignVideoPollution(SmallVideo("attacker-movie", 2, 4<<10), "360p")
	}
	vic, err := tb.Pollution(ctx, pollute)
	if err != nil {
		return v, err
	}
	v.Vulnerable = len(vic.PollutedSegments) > 0
	v.Detail = vic.String()
	return v, nil
}

// Pollution runs the §IV-C attack on the testbed's stream and returns
// what an honest victim viewer played. The attacker is an insider
// viewer whose modified SDK verifies nothing (and so files no IM
// reports that would incriminate it), playing the whole stream through
// a fake CDN that applies pollute. Attacker and victim sit in one
// country, so geo-matching profiles cannot dodge the attack by never
// pairing them.
func (tb *Testbed) Pollution(ctx context.Context, pollute mitm.PolluteFunc) (attack.VictimObservation, error) {
	fakeHost, err := tb.Net.NewHost(FakeCDNIP())
	if err != nil {
		return attack.VictimObservation{}, err
	}
	malHost, err := tb.NewViewerHost("US")
	if err != nil {
		return attack.VictimObservation{}, err
	}
	mal := tb.ViewerConfig(malHost, 666)
	mal.MaxSegments = tb.Video.Segments
	mal.InsecureNoVerify = true
	atk, err := attack.LaunchPollution(ctx, mal, fakeHost, pollute)
	if err != nil {
		return attack.VictimObservation{}, err
	}
	defer atk.Close()

	victimHost, err := tb.NewViewerHost("US")
	if err != nil {
		return attack.VictimObservation{}, err
	}
	victim := tb.ViewerConfig(victimHost, 99)
	victim.MaxSegments = tb.Video.Segments
	return attack.RunVictim(ctx, victim, tb.Video)
}

// IPLeakTest checks whether joining a swarm exposes peers' addresses to
// an arbitrary (attacker-controlled) peer (§IV-D).
func IPLeakTest(ctx context.Context, prof provider.Profile) (Verdict, error) {
	v := Verdict{Provider: prof.Name, Risk: RiskIPLeak, Applicable: true}
	video := SmallVideo("bbb", 6, 16<<10)
	tb, err := NewTestbed(ctx, TestbedConfig{Profile: prof, Video: video})
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
	rec := RecorderFor(attackerHost)

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
	video := SmallVideo("bbb", 6, 32<<10)
	tb, err := NewTestbed(ctx, TestbedConfig{Profile: prof, Video: video})
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
	ctrlMeter := MeterFor(&ctrlCfg, ctrlHost)
	if _, err := tb.RunViewer(ctx, ctrlCfg); err != nil {
		return v, err
	}

	// PDN pair: a seeder and a later viewer who leeches then serves.
	seedHost, err := tb.NewViewerHost("US")
	if err != nil {
		return v, err
	}
	seedCfg := tb.ViewerConfig(seedHost, 2)
	seedMeter := MeterFor(&seedCfg, seedHost)
	_, stopSeeder, err := tb.Seeder(ctx, seedCfg, video.Segments)
	if err != nil {
		return v, err
	}
	leechHost, err := tb.NewViewerHost("GB")
	if err != nil {
		return v, err
	}
	leechCfg := tb.ViewerConfig(leechHost, 3)
	leechMeter := MeterFor(&leechCfg, leechHost)
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
