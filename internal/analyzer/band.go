package analyzer

import (
	"time"

	"github.com/stealthy-peers/pdnsec/internal/media"
	"github.com/stealthy-peers/pdnsec/internal/netsim"
	"github.com/stealthy-peers/pdnsec/internal/pdnclient"
	"github.com/stealthy-peers/pdnsec/internal/population"
	"github.com/stealthy-peers/pdnsec/internal/signal"
)

// viewerCountries spreads viewers across the default geo plan.
var viewerCountries = []string{"US", "DE", "FR", "GB", "JP", "BR", "IN", "CA"}

// ViewerCountry is the country the i-th member of a swarm is placed in.
func ViewerCountry(i int) string { return viewerCountries[i%len(viewerCountries)] }

// BandViewer places the n-th member of a behavioral band on the testbed
// and returns its viewer config, playing segments segments unless the
// behavior says otherwise. Honest members behave like any viewer — own
// host, full protocol. Free-riders play the whole stream from ONE shared
// host (a leech farm billing the customer, §IV-B) and refuse every
// upload. Sybil identities share one host too, but each plays a single
// segment and lingers: the mill's job is to be advertised and squat
// neighbor slots while serving nothing. That single-host concentration
// is what the per-host ledger is built to see. Eclipse colluders and
// impersonators do the same from their own hosts, spread across
// countries so geo-matching profiles advertise them to honest peers,
// which is what lets them slip past per-host accounting.
func (tb *Testbed) BandViewer(b population.Behavior, n int, seed int64, segments int) (pdnclient.Config, error) {
	host, err := tb.bandHost(b, n)
	if err != nil {
		return pdnclient.Config{}, err
	}
	cfg := tb.ViewerConfig(host, seed)
	cfg.MaxSegments = segments
	cfg.GracefulDegrade = true
	if b != population.BehaviorHonest {
		cfg.UploadPolicy = func(media.SegmentKey) bool { return false }
	}
	switch b {
	case population.BehaviorSybil, population.BehaviorEclipse, population.BehaviorImpersonator:
		cfg.MaxSegments = 1
		cfg.Linger = 5 * time.Minute
	}
	return cfg, nil
}

// bandHost allocates the n-th band member's machine: the one shared
// host of a single-host behavior (allocated on first use), or a fresh
// one in the member's country.
func (tb *Testbed) bandHost(b population.Behavior, n int) (*netsim.Host, error) {
	if b != population.BehaviorFreeRider && b != population.BehaviorSybil {
		return tb.NewViewerHost(ViewerCountry(n))
	}
	tb.bandMu.Lock()
	defer tb.bandMu.Unlock()
	if h, ok := tb.bandHosts[b]; ok {
		return h, nil
	}
	h, err := tb.NewViewerHost("US")
	if err != nil {
		return nil, err
	}
	tb.bandHosts[b] = h
	return h, nil
}

// HostStats is the signaling plane's anonymized per-host matcher
// footprint — identity peaks and match-grant counts, no addresses —
// across every plane member. The ledger retains peaks and grants for
// departed identities, so reading it after teardown still sees a mill.
func (tb *Testbed) HostStats() []signal.HostStat {
	var stats []signal.HostStat
	for i := 0; ; i++ {
		srv := tb.Dep.Plane.Server(i)
		if srv == nil {
			return stats
		}
		stats = append(stats, srv.HostStats()...)
	}
}

// UploadFairness computes Jain's index over the P2P upload bytes of a
// run's participants — viewers that exchanged at least one P2P byte in
// either direction. Non-participants are excluded: a quarantined leech
// farm that never got a match is a defense success, not unfairness.
// Free-riders that did download count with zero upload, which is
// exactly the asymmetry the index punishes.
func UploadFairness(viewers []pdnclient.Stats) float64 {
	var xs []float64
	for _, s := range viewers {
		if s.P2PUpBytes+s.P2PDownBytes > 0 {
			xs = append(xs, float64(s.P2PUpBytes))
		}
	}
	return population.Jain(xs)
}
