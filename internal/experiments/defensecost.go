package experiments

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"

	"github.com/stealthy-peers/pdnsec/internal/analyzer"
	"github.com/stealthy-peers/pdnsec/internal/attack"
	"github.com/stealthy-peers/pdnsec/internal/cdn"
	"github.com/stealthy-peers/pdnsec/internal/media"
	"github.com/stealthy-peers/pdnsec/internal/mitm"
	"github.com/stealthy-peers/pdnsec/internal/provider"
)

// DefenseStrategy names an integrity-defense deployment option.
type DefenseStrategy string

// The three strategies §V-B weighs against each other.
const (
	DefenseNone         DefenseStrategy = "none"
	DefenseHashManifest DefenseStrategy = "hash-manifest"    // CDN-published hashes (Viblast/Peer5-premium style)
	DefensePeerIM       DefenseStrategy = "peer-assisted-im" // the paper's proposal
)

// DefenseCostRow compares one strategy under the same pollution attack.
type DefenseCostRow struct {
	Strategy         DefenseStrategy `json:"strategy"`
	PollutedSegments int             `json:"polluted_segments"`
	VictimCDNBytes   int64           `json:"victim_cdn_bytes"`
	DefenseCDNBytes  int64           `json:"defense_cdn_bytes"` // extra CDN bytes attributable to the defense
	P2PSegments      int             `json:"p2p_segments"`
}

// DefenseCostResult backs the §V-B cost-comparison extension.
type DefenseCostResult struct {
	Rows []DefenseCostRow `json:"rows"`
}

// RunDefenseCost runs the same segment-pollution attack against three
// deployments — undefended, CDN hash manifest, and peer-assisted IM —
// and compares protection and CDN cost. It quantifies the paper's
// argument for peer-assisted checking: hash manifests protect but every
// viewer pays CDN bytes for them on every session, while peer-assisted
// IM pays arbitration fetches only when an attack actually produces
// conflicting reports — cost scales with attacker activity, not with
// the viewer population.
func RunDefenseCost(ctx context.Context) (*DefenseCostResult, error) {
	res := &DefenseCostResult{}
	for _, strategy := range []DefenseStrategy{DefenseNone, DefenseHashManifest, DefensePeerIM} {
		row, err := defenseCostRow(ctx, strategy)
		if err != nil {
			return nil, fmt.Errorf("experiments: defense cost %s: %w", strategy, err)
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

func defenseCostRow(ctx context.Context, strategy DefenseStrategy) (DefenseCostRow, error) {
	row := DefenseCostRow{Strategy: strategy}
	video := analyzer.SmallVideo("bbb", 6, 16<<10)

	opts := provider.Options{Seed: 13}
	if strategy == DefensePeerIM {
		opts.PolicyOverride = analyzer.DefaultPolicyWithIM()
	}
	tb, err := analyzer.NewTestbed(ctx, analyzer.TestbedConfig{Profile: provider.Peer5(), Video: video, Options: opts})
	if err != nil {
		return row, err
	}
	defer tb.Close()

	fakeHost, err := tb.Net.NewHost(analyzer.FakeCDNIP())
	if err != nil {
		return row, err
	}
	malHost, err := tb.NewViewerHost("US")
	if err != nil {
		return row, err
	}
	// An unmodified SDK: the malicious peer files IM reports for what the
	// fake CDN served it, and the conflicts it causes are the peer-assisted
	// defense's arbitration cost.
	mal := tb.ViewerConfig(malHost, 666)
	mal.MaxSegments = video.Segments
	atk, err := attack.LaunchPollution(ctx, mal, fakeHost, mitm.SameSizePollution([]int{3, 4}))
	if err != nil {
		return row, err
	}
	defer atk.Close()

	cdnBefore := tb.CDN.BytesServed(video.ID)
	victimHost, err := tb.NewViewerHost("GB")
	if err != nil {
		return row, err
	}
	vcfg := tb.ViewerConfig(victimHost, 21)
	if strategy == DefenseHashManifest {
		vcfg.VerifyHashManifest = true
	}
	vcfg.MaxSegments = video.Segments
	var polluted int
	vcfg.OnSegment = func(key media.SegmentKey, data []byte, source string) {
		if !video.Verify(key.Rendition, key.Index, data) {
			polluted++
		}
	}
	st, err := tb.RunViewer(ctx, vcfg)
	if err != nil {
		return row, err
	}
	row.PollutedSegments = polluted
	row.P2PSegments = st.FromP2P
	row.VictimCDNBytes = tb.CDN.BytesServed(video.ID) - cdnBefore

	// Defense-attributable CDN bytes: the hash list for hash-manifest;
	// the arbitration fetches for peer-assisted IM (here resolved from
	// ground truth, so count them explicitly).
	rendition := video.Renditions[0]
	switch strategy {
	case DefenseHashManifest:
		// One hashes.json fetch per viewer session, as the CDN bills it.
		before := tb.CDN.BytesServed(video.ID)
		req := httptest.NewRequest(http.MethodGet, cdn.HashesURL("", video.ID, rendition.Name), nil)
		tb.CDN.Handler().ServeHTTP(httptest.NewRecorder(), req)
		row.DefenseCDNBytes = tb.CDN.BytesServed(video.ID) - before
	case DefensePeerIM:
		_, fetches, _ := tb.IM.Stats()
		row.DefenseCDNBytes = int64(fetches) * int64(rendition.SegmentBytes)
	}
	return row, nil
}

// Render prints the comparison.
func (r *DefenseCostResult) Render() string {
	var b strings.Builder
	b.WriteString("§V-B defense cost comparison (same segment-pollution attack):\n")
	fmt.Fprintf(&b, "  %-18s %10s %14s %16s %8s\n", "strategy", "polluted", "victim-cdn-B", "defense-cdn-B", "p2p-seg")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "  %-18s %10d %14d %16d %8d\n",
			row.Strategy, row.PollutedSegments, row.VictimCDNBytes, row.DefenseCDNBytes, row.P2PSegments)
	}
	return b.String()
}
