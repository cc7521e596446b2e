package experiments

import (
	"context"
	"fmt"
	"net/netip"
	"strings"
	"time"

	"github.com/stealthy-peers/pdnsec/internal/analyzer"
	"github.com/stealthy-peers/pdnsec/internal/attack"
	"github.com/stealthy-peers/pdnsec/internal/battery"
	"github.com/stealthy-peers/pdnsec/internal/capture"
	"github.com/stealthy-peers/pdnsec/internal/geoip"
	"github.com/stealthy-peers/pdnsec/internal/netsim"
	"github.com/stealthy-peers/pdnsec/internal/population"
	"github.com/stealthy-peers/pdnsec/internal/provider"
)

func mustAP(s string) netip.AddrPort { return netip.MustParseAddrPort(s) }

// IPLeakLabResult backs the §IV-D lab test: two remote peers exchange
// real addresses via STUN on every provider.
type IPLeakLabResult struct {
	PerProvider map[string]bool `json:"per_provider"` // provider -> leaked
}

// IPLeakLab reads the two-peer IP-leak outcome for each public provider
// plus the private profile off Table V's ip-leak row, which already ran
// the test.
func IPLeakLab(tv *TableVResult) *IPLeakLabResult {
	res := &IPLeakLabResult{PerProvider: map[string]bool{}}
	for _, c := range tv.columns() {
		v, _ := c.verdict(battery.RiskIPLeak)
		res.PerProvider[c.Provider] = v.Vulnerable
	}
	return res
}

// Render prints the lab outcome.
func (r *IPLeakLabResult) Render() string {
	var b strings.Builder
	b.WriteString("§IV-D IP leak (lab, two remote peers):\n")
	for _, prov := range []string{"peer5", "streamroot", "viblast", "mango-private"} {
		leaked, ok := r.PerProvider[prov]
		if !ok {
			continue
		}
		fmt.Fprintf(&b, "  %-14s leaked=%v\n", prov, leaked)
	}
	return b.String()
}

// IPLeakWildResult backs the in-the-wild harvest: one controlled peer
// in a live channel for a simulated week.
type IPLeakWildResult struct {
	Channels []population.HarvestSummary `json:"channels"`
	Combined population.HarvestSummary   `json:"combined"`
}

// RunIPLeakWild replays the paper's two channel populations (Huya-like
// and RT-News-like) against a controlled peer's capture and runs the
// real harvest + classification pipeline over it.
func RunIPLeakWild(seed int64) (*IPLeakWildResult, error) {
	db := geoip.NewDB()
	controlled := mustAP("66.24.0.250:40000")
	res := &IPLeakWildResult{}

	var allAddrs []netip.Addr
	for i, model := range []population.ChannelModel{population.HuyaLike(), population.RTNewsLike()} {
		viewers, err := model.Generate(db, seed+int64(i))
		if err != nil {
			return nil, err
		}
		pkts := population.HarvestPackets(viewers, controlled, seed+int64(i))
		addrs := capture.HarvestPeerIPs(pkts, controlled.Addr())
		res.Channels = append(res.Channels, population.Summarize(model.Name, addrs, db))
		allAddrs = append(allAddrs, addrs...)
	}
	res.Combined = population.Summarize("combined", allAddrs, db)
	return res, nil
}

// Render prints the harvest the way §IV-D reports it.
func (r *IPLeakWildResult) Render() string {
	var b strings.Builder
	b.WriteString("§IV-D IP leak in the wild (controlled peer, one-week harvest):\n")
	for _, s := range append(r.Channels, r.Combined) {
		fmt.Fprintf(&b, "  %-14s total=%d public=%d bogons=%d (private=%d nat=%d reserved=%d) countries=%d cities=%d\n",
			s.Channel, s.Total, s.Public, s.Bogons, s.Private, s.SharedNAT, s.Reserved, s.Countries, s.Cities)
		for i, tc := range s.TopCountries {
			if i >= 3 {
				break
			}
			fmt.Fprintf(&b, "      top%d %s %d (%.0f%%)\n", i+1, tc.Country, tc.Count, tc.Share*100)
		}
	}
	return b.String()
}

// GeoMatchResult backs the §V-C geo-matching mitigation estimate.
type GeoMatchResult struct {
	Channel      string  `json:"channel"`
	ControlledIn string  `json:"controlled_in"`
	LeakedBefore int     `json:"leaked_before"`
	LeakedAfter  int     `json:"leaked_after"`
	ShareAfter   float64 `json:"share_after"`
}

// RunGeoMatchMitigation estimates how same-country matching shrinks the
// harvest: only viewers in the controlled peer's country remain visible.
// The paper: 35% of RT News leaks remain (US peer), 0% of Huya leaks
// (non-CN peer).
func RunGeoMatchMitigation(seed int64) ([]GeoMatchResult, error) {
	db := geoip.NewDB()
	cases := []struct {
		model        population.ChannelModel
		controlledIn string
	}{
		{population.RTNewsLike(), "US"},
		{population.HuyaLike(), "US"},
	}
	var out []GeoMatchResult
	for i, c := range cases {
		viewers, err := c.model.Generate(db, seed+int64(i))
		if err != nil {
			return nil, err
		}
		before, after := 0, 0
		for _, v := range viewers {
			if geoip.Classify(v.Addr) != geoip.ClassPublic {
				continue
			}
			before++
			if v.Country == c.controlledIn {
				after++
			}
		}
		res := GeoMatchResult{
			Channel:      c.model.Name,
			ControlledIn: c.controlledIn,
			LeakedBefore: before,
			LeakedAfter:  after,
		}
		if before > 0 {
			res.ShareAfter = float64(after) / float64(before)
		}
		out = append(out, res)
	}
	return out, nil
}

// RenderGeoMatch prints the mitigation estimate.
func RenderGeoMatch(results []GeoMatchResult) string {
	var b strings.Builder
	b.WriteString("§V-C same-country matching mitigation:\n")
	for _, r := range results {
		fmt.Fprintf(&b, "  %-14s controlled peer in %s: leaked %d -> %d (%.0f%%)\n",
			r.Channel, r.ControlledIn, r.LeakedBefore, r.LeakedAfter, r.ShareAfter*100)
	}
	return b.String()
}

// FreeRideBillingResult backs the §IV-B billing-impact demonstration.
type FreeRideBillingResult struct {
	Provider     string  `json:"provider"`
	P2PBytes     int64   `json:"p2p_bytes"`
	VictimUsage  int64   `json:"victim_usage_bytes"`
	VictimCost   float64 `json:"victim_cost_dollars"`
	JoinAccepted bool    `json:"join_accepted"`
}

// RunFreeRideBilling free-rides a Peer5-like service with attacker
// peers streaming the attacker's own video under the victim's key, and
// reads the victim's bill afterwards.
func RunFreeRideBilling(ctx context.Context, attackerPeers int) (*FreeRideBillingResult, error) {
	if attackerPeers < 2 {
		attackerPeers = 3
	}
	video := analyzer.SmallVideo("attacker-movie", 6, 64<<10)
	tb, err := analyzer.NewTestbed(ctx, analyzer.TestbedConfig{Profile: provider.Peer5(), Video: video, CustomerDomain: "victim.com"})
	if err != nil {
		return nil, err
	}
	defer tb.Close()

	hosts := make([]*netsim.Host, attackerPeers)
	for i := range hosts {
		h, err := tb.NewViewerHost("US")
		if err != nil {
			return nil, err
		}
		hosts[i] = h
	}
	peer := tb.StolenConfig(hosts[0], 1)
	peer.Origin = "https://freerider.evil"
	peer.MaxSegments = video.Segments
	res, err := attack.GenerateTraffic(ctx, peer, hosts)
	if err != nil {
		return nil, err
	}
	// Stats frames are sent just before each peer disconnects; give the
	// server a moment to process the last ones.
	timeout := time.NewTimer(5 * time.Second)
	defer timeout.Stop()
	tick := time.NewTicker(10 * time.Millisecond)
	defer tick.Stop()
	for waiting := true; waiting && tb.Dep.Keys.Usage("victim.com").P2PBytes < res.P2PBytes; {
		select {
		case <-timeout.C:
			waiting = false
		case <-ctx.Done():
			waiting = false
		case <-tick.C:
		}
	}
	return &FreeRideBillingResult{
		Provider:     "peer5",
		P2PBytes:     res.P2PBytes,
		VictimUsage:  tb.Dep.Keys.Usage("victim.com").P2PBytes,
		VictimCost:   tb.Dep.Keys.Cost("victim.com"),
		JoinAccepted: res.JoinAccepted,
	}, nil
}

// Render prints the billing impact.
func (r *FreeRideBillingResult) Render() string {
	return fmt.Sprintf("§IV-B free-riding billing: attacker generated %d P2P bytes; victim metered %d bytes, billed $%.6f (join accepted: %v)\n",
		r.P2PBytes, r.VictimUsage, r.VictimCost, r.JoinAccepted)
}

// ECDNResult backs the §VI Microsoft eCDN follow-up.
type ECDNResult struct {
	FreeRiding       bool `json:"free_riding"`
	SegmentPollution bool `json:"segment_pollution"`
}

// RunECDN checks the eCDN profile: free riding prevented (tenant ID not
// public), segment pollution still effective.
func RunECDN(ctx context.Context) (*ECDNResult, error) {
	prof := provider.ECDN()
	cd, err := battery.RunRisk(ctx, prof, battery.RiskCrossDomain)
	if err != nil {
		return nil, err
	}
	sp, err := battery.RunRisk(ctx, prof, battery.RiskSegmentPollution)
	if err != nil {
		return nil, err
	}
	return &ECDNResult{FreeRiding: cd.Vulnerable, SegmentPollution: sp.Vulnerable}, nil
}

// Render prints the eCDN outcome.
func (r *ECDNResult) Render() string {
	return fmt.Sprintf("§VI Microsoft eCDN: free riding = %v (tenant ID not public), segment pollution = %v\n",
		r.FreeRiding, r.SegmentPollution)
}
