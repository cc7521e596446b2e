package analyzer

import (
	"context"
	"os"
	"slices"
	"strings"
	"testing"
	"time"

	"github.com/stealthy-peers/pdnsec/internal/pdnclient"
	"github.com/stealthy-peers/pdnsec/internal/provider"
)

func testCtx(t *testing.T) context.Context {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Minute)
	t.Cleanup(cancel)
	return ctx
}

func findVerdict(t *testing.T, vs []Verdict, risk string) Verdict {
	t.Helper()
	for _, v := range vs {
		if v.Risk == risk {
			return v
		}
	}
	t.Fatalf("no verdict for %s in %+v", risk, vs)
	return Verdict{}
}

func TestCrossDomainVerdicts(t *testing.T) {
	ctx := testCtx(t)
	cases := []struct {
		prof provider.Profile
		want bool
	}{
		{provider.Peer5(), true},
		{provider.Streamroot(), true},
		{provider.Viblast(), false}, // default allowlist blocks it
		{provider.MangoPrivate(), true},
		{provider.TencentPrivate(), true}, // token not video-bound
		{provider.StrictPrivate(), false},
		{provider.ECDN(), false},
	}
	for _, tc := range cases {
		v, err := CrossDomainTest(ctx, tc.prof)
		if err != nil {
			t.Fatalf("%s: %v", tc.prof.Name, err)
		}
		if v.Vulnerable != tc.want {
			t.Errorf("%s cross-domain vulnerable=%v, want %v (%s)", tc.prof.Name, v.Vulnerable, tc.want, v.Detail)
		}
	}
}

func TestDomainSpoofVerdicts(t *testing.T) {
	ctx := testCtx(t)
	// All three public providers fall to domain spoofing even with the
	// allowlist enforced — the paper's headline auth finding.
	for _, prof := range provider.PublicProfiles() {
		v, err := DomainSpoofTest(ctx, prof)
		if err != nil {
			t.Fatalf("%s: %v", prof.Name, err)
		}
		if !v.Applicable || !v.Vulnerable {
			t.Errorf("%s spoof: applicable=%v vulnerable=%v (%s)", prof.Name, v.Applicable, v.Vulnerable, v.Detail)
		}
	}
	// eCDN is not applicable: no stealable key.
	v, err := DomainSpoofTest(ctx, provider.ECDN())
	if err != nil {
		t.Fatal(err)
	}
	if v.Applicable {
		t.Error("eCDN spoof test should be inapplicable")
	}
}

func TestPollutionVerdictsPeer5(t *testing.T) {
	ctx := testCtx(t)
	direct, err := PollutionTest(ctx, provider.Peer5(), false, nil)
	if err != nil {
		t.Fatal(err)
	}
	if direct.Vulnerable {
		t.Errorf("direct pollution should fail: %s", direct.Detail)
	}
	seg, err := PollutionTest(ctx, provider.Peer5(), true, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !seg.Vulnerable {
		t.Errorf("segment pollution should succeed: %s", seg.Detail)
	}
}

// TestPollutionVerdictsMatchMatrix: the analyzer and the replay matrix
// share one pollution run, so both pollution risks run on every profile
// — whatever style its viewers' credential takes — and each
// segment-pollution verdict is the committed matrix's pollution cell.
// Direct pollution falls to the slow-start consistency check everywhere.
func TestPollutionVerdictsMatchMatrix(t *testing.T) {
	exposed := matrixColumn(t, "pollution")
	for _, prof := range provider.AllProfiles() {
		t.Run(prof.Name, func(t *testing.T) {
			want, ok := exposed[prof.Name]
			if !ok {
				t.Fatalf("docs/defense_matrix.md has no %s row", prof.Name)
			}
			ctx := testCtx(t)
			direct, err := PollutionTest(ctx, prof, false, nil)
			if err != nil {
				t.Fatal(err)
			}
			if direct.Vulnerable {
				t.Errorf("direct pollution should fail: %s", direct.Detail)
			}
			seg, err := PollutionTest(ctx, prof, true, nil)
			if err != nil {
				t.Fatal(err)
			}
			if seg.Vulnerable != want {
				t.Errorf("segment pollution vulnerable=%v, matrix exposed=%v (%s)", seg.Vulnerable, want, seg.Detail)
			}
		})
	}
}

// matrixColumn reads one attack column of the committed defense matrix
// as profile → exposed.
func matrixColumn(t *testing.T, attack string) map[string]bool {
	t.Helper()
	raw, err := os.ReadFile("../../docs/defense_matrix.md")
	if err != nil {
		t.Fatal(err)
	}
	col := -1
	out := make(map[string]bool)
	for _, line := range strings.Split(string(raw), "\n") {
		if !strings.HasPrefix(line, "| ") {
			continue
		}
		cells := strings.Split(strings.Trim(line, "| "), " | ")
		if cells[0] == "profile" {
			col = slices.Index(cells, attack)
			continue
		}
		if col > 0 && col < len(cells) {
			out[cells[0]] = cells[col] == "exposed"
		}
	}
	if col < 0 {
		t.Fatalf("docs/defense_matrix.md has no %q column", attack)
	}
	return out
}

func TestSegmentPollutionBlockedByIMDefense(t *testing.T) {
	ctx := testCtx(t)
	v, err := PollutionTest(ctx, provider.Peer5(), true, DefaultPolicyWithIM())
	if err != nil {
		t.Fatal(err)
	}
	if v.Vulnerable {
		t.Errorf("IM checking should stop segment pollution: %s", v.Detail)
	}
}

func TestIPLeakVerdict(t *testing.T) {
	ctx := testCtx(t)
	v, err := IPLeakTest(ctx, provider.Peer5())
	if err != nil {
		t.Fatal(err)
	}
	if !v.Vulnerable {
		t.Errorf("IP leak should be present: %s", v.Detail)
	}
}

// TestIPLeakHarvestCountsOnlyPeers: the controlled peer's capture also
// holds its own server-reflexive query to the provider's STUN server,
// and the harvest does not count that server as a peer. On peer5 it
// finds the victim alone; hardened never matches the two, so it finds
// nobody.
func TestIPLeakHarvestCountsOnlyPeers(t *testing.T) {
	ctx := testCtx(t)
	for _, tc := range []struct {
		prof provider.Profile
		want string
	}{
		{provider.Peer5(), "harvested 1 peer IPs"},
		{provider.Hardened(), "harvested 0 peer IPs"},
	} {
		v, err := IPLeakTest(ctx, tc.prof)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(v.Detail, tc.want) {
			t.Errorf("%s: detail %q, want %q", tc.prof.Name, v.Detail, tc.want)
		}
	}
}

func TestResourceSquattingVerdict(t *testing.T) {
	ctx := testCtx(t)
	v, err := ResourceSquattingTest(ctx, provider.Peer5())
	if err != nil {
		t.Fatal(err)
	}
	if !v.Vulnerable {
		t.Errorf("resource squatting should be present: %s", v.Detail)
	}
}

func TestRunAllProducesFullColumn(t *testing.T) {
	ctx := testCtx(t)
	vs, err := RunAll(ctx, provider.Peer5())
	if err != nil {
		t.Fatal(err)
	}
	if len(vs) != len(AllRisks()) {
		t.Fatalf("got %d verdicts", len(vs))
	}
	// Spot-check the Table V shape for Peer5: everything vulnerable
	// except direct pollution.
	if findVerdict(t, vs, RiskDirectPollution).Vulnerable {
		t.Error("direct pollution should not be vulnerable")
	}
	for _, risk := range []string{RiskCrossDomain, RiskDomainSpoofing, RiskSegmentPollution, RiskIPLeak, RiskResourceSquatting} {
		if !findVerdict(t, vs, risk).Vulnerable {
			t.Errorf("%s should be vulnerable for peer5", risk)
		}
	}
}

func TestRunRiskUnknown(t *testing.T) {
	if _, err := RunRisk(context.Background(), provider.Peer5(), "nope"); err == nil {
		t.Fatal("unknown risk should error")
	}
}

func TestTestbedViewerHelpers(t *testing.T) {
	tb, err := NewTestbed(context.Background(), TestbedConfig{Profile: provider.Peer5()})
	if err != nil {
		t.Fatal(err)
	}
	defer tb.Close()
	h, err := tb.NewViewerHost("DE")
	if err != nil {
		t.Fatal(err)
	}
	if tb.GeoDB.Lookup(h.Addr()).Country != "DE" {
		t.Fatalf("viewer host not in DE: %v", h.Addr())
	}
	nh, nat, err := tb.NewNATViewerHost("JP", 1)
	if err != nil {
		t.Fatal(err)
	}
	if tb.GeoDB.Lookup(nat.ExternalAddr()).Country != "JP" {
		t.Fatal("NAT external addr not in JP")
	}
	if nh.VisibleAddr() != nat.ExternalAddr() {
		t.Fatal("NATed viewer should be visible via the NAT")
	}
}

func TestHardenedProfileResistsCrossDomain(t *testing.T) {
	ctx := testCtx(t)
	v, err := CrossDomainTest(ctx, provider.Hardened())
	if err != nil {
		t.Fatal(err)
	}
	if v.Vulnerable {
		t.Fatalf("hardened profile should resist stolen-JWT reuse: %s", v.Detail)
	}
}

func TestHardenedViewerStreamsNormally(t *testing.T) {
	tb, err := NewTestbed(context.Background(), TestbedConfig{Profile: provider.Hardened()})
	if err != nil {
		t.Fatal(err)
	}
	defer tb.Close()
	host, err := tb.NewViewerHost("US")
	if err != nil {
		t.Fatal(err)
	}
	cfg := tb.ViewerConfig(host, 1)
	if cfg.Token == "" {
		t.Fatal("hardened viewer config should carry a JWT")
	}
	st, err := tb.RunViewer(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if st.SegmentsPlayed == 0 {
		t.Fatalf("hardened viewer played nothing: %+v", st)
	}
}

// TestEveryProfileReachesP2P: a profile deployed on a plain testbed gets
// every service its own policy demands. A seeder and two viewers in
// turn (the first pays whatever bootstrap the policy has — a panel
// needs its reports) must leave the second viewer streaming over P2P; a
// hardened testbed nobody hand-wired a checker into used to play every
// segment from the CDN, rejecting the P2P ones for want of a SIM.
func TestEveryProfileReachesP2P(t *testing.T) {
	for _, prof := range provider.AllProfiles() {
		if !prof.Policy.P2PEnabled {
			continue
		}
		t.Run(prof.Name, func(t *testing.T) {
			ctx := testCtx(t)
			tb, err := NewTestbed(ctx, TestbedConfig{Profile: prof})
			if err != nil {
				t.Fatal(err)
			}
			defer tb.Close()
			// One country, so geo-constrained profiles match the three.
			viewer := func(seed int64) pdnclient.Config {
				host, err := tb.NewViewerHost("US")
				if err != nil {
					t.Fatal(err)
				}
				return tb.ViewerConfig(host, seed)
			}
			_, stop, err := tb.Seeder(ctx, viewer(1), tb.Video.Segments)
			if err != nil {
				t.Fatal(err)
			}
			defer stop()
			var st pdnclient.Stats
			for seed := int64(2); seed <= 3; seed++ {
				if st, err = tb.RunViewer(ctx, viewer(seed)); err != nil {
					t.Fatal(err)
				}
				if st.SegmentsPlayed != tb.Video.Segments {
					t.Fatalf("viewer %d played %d/%d segments", seed, st.SegmentsPlayed, tb.Video.Segments)
				}
			}
			if st.FromP2P == 0 {
				t.Fatalf("second viewer never used P2P: %+v", st)
			}
		})
	}
}
