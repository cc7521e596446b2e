package provider

import (
	"context"
	"fmt"
	"net/netip"
	"testing"
	"time"

	"github.com/stealthy-peers/pdnsec/internal/auth"
	"github.com/stealthy-peers/pdnsec/internal/defense"
	"github.com/stealthy-peers/pdnsec/internal/media"
	"github.com/stealthy-peers/pdnsec/internal/netsim"
	"github.com/stealthy-peers/pdnsec/internal/secure"
	"github.com/stealthy-peers/pdnsec/internal/signal"
)

func deploy(t *testing.T, p Profile) (*netsim.Network, *Deployment) {
	t.Helper()
	n := netsim.New(netsim.Config{})
	host := n.MustHost(netip.MustParseAddr("44.1.1.1"))
	d, err := Deploy(context.Background(), p, host, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { d.Close() })
	return n, d
}

func join(t *testing.T, n *netsim.Network, d *Deployment, ip string, req signal.JoinRequest) (*signal.Client, error) {
	t.Helper()
	host := n.MustHost(netip.MustParseAddr(ip))
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
	defer cancel()
	c, err := signal.Dial(ctx, host, d.SignalAddrs[0])
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	_, err = c.Join(context.Background(), req)
	return c, err
}

func TestProfileInventory(t *testing.T) {
	pubs := PublicProfiles()
	if len(pubs) != 3 {
		t.Fatalf("public profiles: %d", len(pubs))
	}
	names := map[string]bool{}
	for _, p := range AllProfiles() {
		if names[p.Name] {
			t.Fatalf("duplicate profile %s", p.Name)
		}
		names[p.Name] = true
	}
	if len(names) != 9 {
		t.Fatalf("expected 9 profiles, got %d", len(names))
	}
}

func TestPeer5DefaultsNoAllowlist(t *testing.T) {
	n, d := deploy(t, Peer5())
	key := d.IssueKey("victim.com")
	// Cross-domain join with a stolen key passes: no allowlist.
	_, err := join(t, n, d, "66.24.0.1", signal.JoinRequest{
		APIKey: key, Origin: "https://attacker.evil", Video: "v", Rendition: "r",
	})
	if err != nil {
		t.Fatalf("peer5 default should allow cross-domain: %v", err)
	}
	if d.Keys.Plan() != auth.PlanPerTraffic {
		t.Fatal("peer5 bills per traffic")
	}
}

func TestViblastDefaultAllowlist(t *testing.T) {
	n, d := deploy(t, Viblast())
	key := d.IssueKey("victim.com")
	// Cross-domain join is blocked by the default allowlist.
	_, err := join(t, n, d, "66.24.0.1", signal.JoinRequest{
		APIKey: key, Origin: "https://attacker.evil", Video: "v", Rendition: "r",
	})
	if err == nil {
		t.Fatal("viblast default allowlist should block cross-domain")
	}
	// Spoofing the victim origin passes.
	_, err = join(t, n, d, "66.24.0.2", signal.JoinRequest{
		APIKey: key, Origin: "https://victim.com", Video: "v", Rendition: "r",
	})
	if err != nil {
		t.Fatalf("domain spoofing should pass: %v", err)
	}
	if d.Keys.Plan() != auth.PlanPerViewerHour {
		t.Fatal("viblast bills per viewer hour")
	}
}

func TestMangoPrivateNoConstraints(t *testing.T) {
	n, d := deploy(t, MangoPrivate())
	_, err := join(t, n, d, "66.24.0.1", signal.JoinRequest{Video: "v", Rendition: "r"})
	if err != nil {
		t.Fatalf("mango-like service accepts unauthenticated peers: %v", err)
	}
}

func TestTencentPrivateTokenNotBound(t *testing.T) {
	n, d := deploy(t, TencentPrivate())
	tok, err := d.IssueToken("p1", "https://v.qq-sim.test/legit.m3u8")
	if err != nil {
		t.Fatal(err)
	}
	// Reusing the token for the attacker's own stream passes: no video
	// binding.
	_, err = join(t, n, d, "66.24.0.1", signal.JoinRequest{
		Token: tok, VideoURL: "https://attacker/own.m3u8", Video: "v", Rendition: "r",
	})
	if err != nil {
		t.Fatalf("unbound token should be reusable: %v", err)
	}
}

func TestStrictPrivateTokenBound(t *testing.T) {
	n, d := deploy(t, StrictPrivate())
	tok, err := d.IssueToken("p1", "https://cdn/legit.m3u8")
	if err != nil {
		t.Fatal(err)
	}
	_, err = join(t, n, d, "66.24.0.1", signal.JoinRequest{
		Token: tok, VideoURL: "https://attacker/own.m3u8", Video: "v", Rendition: "r",
	})
	if err == nil {
		t.Fatal("video-bound token must not validate for another stream")
	}
	_, err = join(t, n, d, "66.24.0.2", signal.JoinRequest{
		Token: tok, VideoURL: "https://cdn/legit.m3u8", Video: "v", Rendition: "r",
	})
	if err != nil {
		t.Fatalf("legitimate use should pass: %v", err)
	}
	// Unauthenticated join rejected.
	_, err = join(t, n, d, "66.24.0.3", signal.JoinRequest{Video: "v", Rendition: "r"})
	if err == nil {
		t.Fatal("strict private requires a token")
	}
}

func TestECDNSecretKey(t *testing.T) {
	p := ECDN()
	if !p.SecretKey {
		t.Fatal("eCDN credential is not publicly embedded")
	}
	n, d := deploy(t, p)
	// The attacker has no key to steal; a made-up one fails.
	_, err := join(t, n, d, "66.24.0.1", signal.JoinRequest{
		APIKey: "guessed-tenant-id", Origin: "https://attacker.evil", Video: "v", Rendition: "r",
	})
	if err == nil {
		t.Fatal("eCDN should reject unknown tenant IDs")
	}
}

func TestSTUNServerRuns(t *testing.T) {
	n, d := deploy(t, Peer5())
	host := n.MustHost(netip.MustParseAddr("66.24.0.7"))
	// Any peer can discover its reflexive address via the deployment's
	// STUN endpoint; verified indirectly through an ICE gather in the
	// ice package — here we just confirm the port answers.
	pc, err := host.ListenPacket(0)
	if err != nil {
		t.Fatal(err)
	}
	defer pc.Close()
	if d.STUNAddr.Port() != 3478 {
		t.Fatalf("stun addr %v", d.STUNAddr)
	}
}

func TestSignaturesPresent(t *testing.T) {
	for _, p := range PublicProfiles() {
		if len(p.Signatures.URLPatterns) == 0 || len(p.Signatures.Namespaces) == 0 || len(p.Signatures.ManifestKeys) == 0 {
			t.Errorf("%s missing signatures: %+v", p.Name, p.Signatures)
		}
	}
	for _, p := range AllProfiles() {
		if len(p.Signatures.URLPatterns) == 0 {
			t.Errorf("%s missing URL signature", p.Name)
		}
	}
}

func TestHardenedJWTBindsVideo(t *testing.T) {
	n, d := deploy(t, Hardened())
	jwt, err := d.IssueToken("p1", "https://cdn/legit.m3u8")
	if err != nil {
		t.Fatal(err)
	}
	// Wrong video: rejected by the video binding.
	_, err = join(t, n, d, "66.24.0.1", signal.JoinRequest{
		Token: jwt, VideoURL: "https://attacker/own.m3u8", Video: "v", Rendition: "r",
	})
	if err == nil {
		t.Fatal("JWT must not validate for another stream")
	}
	// Legit use passes.
	_, err = join(t, n, d, "66.24.0.2", signal.JoinRequest{
		Token: jwt, VideoURL: "https://cdn/legit.m3u8", Video: "v", Rendition: "r",
	})
	if err != nil {
		t.Fatalf("legitimate JWT join: %v", err)
	}
	// Usage limit (3) exhausts: one use consumed above, two more pass,
	// the fourth fails.
	for i := 0; i < 2; i++ {
		ip := fmt.Sprintf("66.24.0.%d", 10+i)
		if _, err := join(t, n, d, ip, signal.JoinRequest{
			Token: jwt, VideoURL: "https://cdn/legit.m3u8", Video: "v", Rendition: "r",
		}); err != nil {
			t.Fatalf("use %d: %v", i+2, err)
		}
	}
	if _, err := join(t, n, d, "66.24.0.4", signal.JoinRequest{
		Token: jwt, VideoURL: "https://cdn/legit.m3u8", Video: "v", Rendition: "r",
	}); err == nil {
		t.Fatal("usage limit should block the replay")
	}
	// No credential at all: rejected.
	if _, err := join(t, n, d, "66.24.0.5", signal.JoinRequest{Video: "v", Rendition: "r"}); err == nil {
		t.Fatal("hardened profile requires a token")
	}
}

func TestIssueTokenWithoutAuthority(t *testing.T) {
	_, d := deploy(t, Peer5())
	if _, err := d.IssueToken("p1", "v"); err == nil {
		t.Fatal("an API-key profile should refuse to issue tokens")
	}
}

// TestManifestKeyStampedForAuthorityOnly: an authority-built integrity
// service advertises a manifest key and Deploy delivers it in the
// policy, which makes viewers demand a SIM for every segment source. A
// panel-built one must leave it empty, or CDN segments — which are how
// a panel learns its hashes in the first place — start demanding SIMs.
func TestManifestKeyStampedForAuthorityOnly(t *testing.T) {
	video := media.NewVOD("bbb", 4)
	authority, err := secure.NewManifestService(video)
	if err != nil {
		t.Fatal(err)
	}
	if authority.ManifestPublicKeyHex() == "" {
		t.Fatal("authority advertises no manifest key")
	}
	panel, err := defense.NewIMChecker(defense.IMConfig{
		Reporters: 2,
		FetchCDN:  func(k media.SegmentKey) ([]byte, error) { return video.SegmentData(k.Rendition, k.Index) },
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		im   *defense.IMChecker
		want string
	}{
		{"authority", authority, authority.ManifestPublicKeyHex()},
		{"panel", panel, ""},
	} {
		t.Run(tc.name, func(t *testing.T) {
			n := netsim.New(netsim.Config{})
			d, err := Deploy(context.Background(), MangoPrivate(), n.MustHost(netip.MustParseAddr("44.1.1.1")), Options{IM: tc.im, Seed: 1})
			if err != nil {
				t.Fatal(err)
			}
			defer d.Close()
			c, err := signal.Dial(context.Background(), n.MustHost(netip.MustParseAddr("66.24.0.1")), d.SignalAddrs[0])
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			w, err := c.Join(context.Background(), signal.JoinRequest{Video: "bbb", Rendition: "360p"})
			if err != nil {
				t.Fatal(err)
			}
			if w.Policy.ManifestPubKey != tc.want {
				t.Fatalf("Policy.ManifestPubKey = %q, want %q", w.Policy.ManifestPubKey, tc.want)
			}
		})
	}
}
