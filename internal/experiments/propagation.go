package experiments

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"time"

	"github.com/stealthy-peers/pdnsec/internal/analyzer"
	"github.com/stealthy-peers/pdnsec/internal/attack"
	"github.com/stealthy-peers/pdnsec/internal/media"
	"github.com/stealthy-peers/pdnsec/internal/mitm"
	"github.com/stealthy-peers/pdnsec/internal/pdnclient"
	"github.com/stealthy-peers/pdnsec/internal/provider"
)

// PropagationResult backs the pollution-propagation experiment: §IV-C
// argues (citing Wang et al.) that pollution in a P2P live system
// "will quickly propagate to 47% of viewers in the initial stage even
// when the initial number of polluters is small"; here one malicious
// seeder poisons a swarm of honest viewers who cache and re-serve what
// they receive.
type PropagationResult struct {
	Viewers          int     `json:"viewers"`
	AffectedViewers  int     `json:"affected_viewers"`
	AffectedFraction float64 `json:"affected_fraction"`
	PollutedPlays    int     `json:"polluted_plays"`
	MaliciousUploads int     `json:"malicious_uploads"` // polluted segments served by the attacker itself
	SecondarySpread  bool    `json:"secondary_spread"`  // victims re-served poison to other victims
	TotalP2PSegments int     `json:"total_p2p_segments"`
}

// RunPollutionPropagation seeds a swarm with one malicious peer
// (feeding from a fake CDN that poisons two mid-stream segments) and
// runs `viewers` honest viewers with staggered arrivals. Because
// honest peers cache and re-serve P2P segments, the poison spreads
// beyond the attacker's own uploads.
func RunPollutionPropagation(ctx context.Context, viewers int) (*PropagationResult, error) {
	if viewers <= 0 {
		viewers = 10
	}
	const segBytes = 16 << 10
	video := analyzer.SmallVideo("live-event", 6, segBytes)
	tb, err := analyzer.NewTestbed(ctx, analyzer.TestbedConfig{Profile: provider.Peer5(), Video: video})
	if err != nil {
		return nil, err
	}
	defer tb.Close()

	fakeHost, err := tb.Net.NewHost(analyzer.FakeCDNIP())
	if err != nil {
		return nil, err
	}
	malHost, err := tb.NewViewerHost("US")
	if err != nil {
		return nil, err
	}
	polluted := []int{3, 4}
	mal := tb.ViewerConfig(malHost, 666)
	mal.MaxSegments = video.Segments
	atk, err := attack.LaunchPollution(ctx, mal, fakeHost, mitm.SameSizePollution(polluted))
	if err != nil {
		return nil, err
	}

	countries := []string{"US", "GB", "DE", "FR", "CA", "JP", "BR", "IN", "AU", "ES"}
	res := &PropagationResult{Viewers: viewers}
	var mu sync.Mutex
	affected := make([]bool, viewers)

	var wg sync.WaitGroup
	errs := make(chan error, viewers)
	for i := 0; i < viewers; i++ {
		host, err := tb.NewViewerHost(countries[i%len(countries)])
		if err != nil {
			return nil, err
		}
		cfg := tb.ViewerConfig(host, int64(100+i))
		cfg.MaxSegments = video.Segments
		cfg.Linger = 5 * time.Second // stay online to re-serve (and re-spread)
		idx := i
		cfg.OnSegment = func(key media.SegmentKey, data []byte, source string) {
			mu.Lock()
			defer mu.Unlock()
			if source == pdnclient.SourceP2P {
				res.TotalP2PSegments++
			}
			if !video.Verify(key.Rendition, key.Index, data) {
				res.PollutedPlays++
				affected[idx] = true
			}
		}
		peer, err := pdnclient.New(cfg)
		if err != nil {
			return nil, err
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := peer.Run(ctx); err != nil {
				errs <- err
			}
			peer.StopLinger()
		}()
		// Staggered arrivals, as a live audience joins.
		select {
		case <-time.After(100 * time.Millisecond):
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			return nil, err
		}
	}
	malStats := atk.Close()

	for _, hit := range affected {
		if hit {
			res.AffectedViewers++
		}
	}
	res.AffectedFraction = float64(res.AffectedViewers) / float64(viewers)
	res.MaliciousUploads = int(malStats.P2PUpBytes) / segBytes
	// If victims played more polluted segments than the attacker itself
	// served, infected viewers re-served the poison.
	res.SecondarySpread = res.PollutedPlays > res.MaliciousUploads
	return res, nil
}

// Render prints the propagation outcome.
func (r *PropagationResult) Render() string {
	var b strings.Builder
	b.WriteString("§IV-C pollution propagation (1 malicious seeder, honest swarm):\n")
	fmt.Fprintf(&b, "  viewers=%d affected=%d (%.0f%%) polluted-plays=%d attacker-served=%d secondary-spread=%v\n",
		r.Viewers, r.AffectedViewers, r.AffectedFraction*100, r.PollutedPlays, r.MaliciousUploads, r.SecondarySpread)
	b.WriteString("  (the paper cites ~47% of viewers affected in the initial stage of a live system)\n")
	return b.String()
}
