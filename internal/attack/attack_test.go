package attack

import (
	"context"
	"net/netip"
	"testing"
	"time"

	"github.com/stealthy-peers/pdnsec/internal/cdn"
	"github.com/stealthy-peers/pdnsec/internal/media"
	"github.com/stealthy-peers/pdnsec/internal/mitm"
	"github.com/stealthy-peers/pdnsec/internal/netsim"
	"github.com/stealthy-peers/pdnsec/internal/pdnclient"
	"github.com/stealthy-peers/pdnsec/internal/provider"
)

type bed struct {
	net     *netsim.Network
	cdnBase string
	dep     *provider.Deployment
	video   *media.Video
	key     string
	nextIP  byte
}

func newBed(t *testing.T, prof provider.Profile, segments int) *bed {
	t.Helper()
	const segBytes = 16 << 10
	video := &media.Video{
		ID:              "bbb",
		Renditions:      []media.Rendition{{Name: "360p", Bandwidth: segBytes * 8 / 10, SegmentBytes: segBytes}},
		Segments:        segments,
		SegmentDuration: 10,
	}
	n := netsim.New(netsim.Config{})
	cdnHost := n.MustHost(netip.MustParseAddr("93.184.216.34"))
	c := cdn.New()
	c.Register(video)
	if err := c.Serve(cdnHost, 80); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })

	sigHost := n.MustHost(netip.MustParseAddr("44.1.1.1"))
	dep, err := provider.Deploy(context.Background(), prof, sigHost, provider.Options{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { dep.Close() })

	b := &bed{net: n, cdnBase: "http://93.184.216.34:80", dep: dep, video: video}
	if prof.Public {
		b.key = dep.IssueKey("victim.com")
	}
	return b
}

func (b *bed) host(t *testing.T) *netsim.Host {
	t.Helper()
	b.nextIP++
	return b.net.MustHost(netip.AddrFrom4([4]byte{66, 24, 7, b.nextIP}))
}

// viewer is what a page-scraping attacker or an honest viewer of the
// victim's stream holds: the embedded key, the victim's origin, a fresh
// host.
func (b *bed) viewer(t *testing.T, seed int64) pdnclient.Config {
	t.Helper()
	return pdnclient.Config{
		Host:        b.host(t),
		Network:     b.net,
		SignalAddr:  b.dep.SignalAddr,
		STUNAddr:    b.dep.STUNAddr,
		CDNBase:     b.cdnBase,
		APIKey:      b.key,
		Origin:      "https://victim.com",
		Video:       b.video.ID,
		Rendition:   "360p",
		MaxSegments: b.video.Segments,
		Seed:        seed,
	}
}

func TestCrossDomainProbe(t *testing.T) {
	b := newBed(t, provider.Peer5(), 2)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	ok, err := CrossDomain(ctx, b.viewer(t, 1))
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("Peer5-like default should accept cross-domain joins")
	}
	// A bogus key fails, and so does no credential at all.
	bogus := b.viewer(t, 2)
	bogus.APIKey = "not-a-key"
	ok, err = CrossDomain(ctx, bogus)
	if err != nil || ok {
		t.Fatalf("bogus key: ok=%v err=%v", ok, err)
	}
	none := b.viewer(t, 3)
	none.APIKey = ""
	ok, err = CrossDomain(ctx, none)
	if err != nil || ok {
		t.Fatalf("no credential: ok=%v err=%v", ok, err)
	}
}

func TestCrossDomainBlockedByViblastAllowlist(t *testing.T) {
	b := newBed(t, provider.Viblast(), 2)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	ok, err := CrossDomain(ctx, b.viewer(t, 1))
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("Viblast-like allowlist should block cross-domain joins")
	}
}

func TestDomainSpoofBeatsAllowlist(t *testing.T) {
	b := newBed(t, provider.Viblast(), 2)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	ok, err := DomainSpoof(ctx, b.viewer(t, 1), b.host(t), "victim.com")
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("domain spoofing should defeat the allowlist")
	}
}

func TestGenerateTrafficBillsVictim(t *testing.T) {
	b := newBed(t, provider.Peer5(), 6)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	before := b.dep.Keys.Usage("victim.com").P2PBytes
	peer := b.viewer(t, 1)
	peer.Origin = "https://freerider.evil"
	res, err := GenerateTraffic(ctx, peer, []*netsim.Host{b.host(t), b.host(t), b.host(t)})
	if err != nil {
		t.Fatal(err)
	}
	if !res.JoinAccepted {
		t.Fatal("free riders should be accepted by a Peer5-like service")
	}
	if res.P2PSegments == 0 || res.P2PBytes == 0 {
		t.Fatalf("no P2P traffic generated: %+v", res)
	}
	// The victim's meter moved even though no victim viewer was online.
	waitFor(t, 10*time.Second, func() bool {
		return b.dep.Keys.Usage("victim.com").P2PBytes > before
	})
	if cost := b.dep.Keys.Cost("victim.com"); cost <= 0 {
		t.Fatalf("victim cost did not increase: %v", cost)
	}
}

func TestSegmentPollutionPropagates(t *testing.T) {
	b := newBed(t, provider.Peer5(), 6)
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()

	atk, err := LaunchPollution(ctx, b.viewer(t, 666), b.net.MustHost(netip.MustParseAddr("13.13.13.13")),
		mitm.SameSizePollution([]int{3, 4}))
	if err != nil {
		t.Fatal(err)
	}
	defer atk.Close()
	if atk.FakeCDN.Substitutions() < 2 {
		t.Fatalf("fake CDN substituted %d segments", atk.FakeCDN.Substitutions())
	}

	obs, err := RunVictim(ctx, b.viewer(t, 99), b.video)
	if err != nil {
		t.Fatal(err)
	}
	if obs.P2PSegments == 0 {
		t.Fatalf("victim never used P2P: %+v", obs.Stats)
	}
	if len(obs.PollutedSegments) == 0 {
		t.Fatal("pollution did not propagate to the victim")
	}
	for _, k := range obs.PollutedSegments {
		if k.Index != 3 && k.Index != 4 {
			t.Fatalf("unexpected polluted segment %v", k)
		}
	}
}

func TestDirectPollutionDefeatedBySlowStartConsistency(t *testing.T) {
	b := newBed(t, provider.Peer5(), 6)
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()

	foreign := &media.Video{
		ID:              "attacker-movie",
		Renditions:      []media.Rendition{{Name: "360p", Bandwidth: 999, SegmentBytes: 4 << 10}},
		Segments:        2,
		SegmentDuration: 10,
	}
	atk, err := LaunchPollution(ctx, b.viewer(t, 666), b.net.MustHost(netip.MustParseAddr("13.13.13.13")),
		mitm.ForeignVideoPollution(foreign, "360p"))
	if err != nil {
		t.Fatal(err)
	}
	defer atk.Close()

	obs, err := RunVictim(ctx, b.viewer(t, 99), b.video)
	if err != nil {
		t.Fatal(err)
	}
	if len(obs.PollutedSegments) != 0 {
		t.Fatalf("direct pollution should be rejected; victim played %v polluted", obs.PollutedSegments)
	}
	if obs.PlayedSegments != 6 {
		t.Fatalf("victim should still complete playback via CDN: %+v", obs)
	}
	if obs.P2PSegments != 0 {
		t.Fatalf("inconsistent segments should never be accepted over P2P: %+v", obs)
	}
}

func TestGenerateTrafficValidation(t *testing.T) {
	b := newBed(t, provider.Peer5(), 2)
	ctx := context.Background()
	_, err := GenerateTraffic(ctx, b.viewer(t, 1), []*netsim.Host{b.host(t)})
	if err == nil {
		t.Fatal("single-host traffic generation should fail")
	}
}

func waitFor(t *testing.T, timeout time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatal("condition not met before timeout")
}
