package battery

import (
	"context"
	"strings"
	"testing"
	"time"

	"github.com/stealthy-peers/pdnsec/internal/analyzer"
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

func TestSegmentPollutionBlockedByIMDefense(t *testing.T) {
	ctx := testCtx(t)
	v, err := PollutionTest(ctx, provider.Peer5(), true, analyzer.DefaultPolicyWithIM())
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
