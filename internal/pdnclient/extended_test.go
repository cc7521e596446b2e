package pdnclient

import (
	"bytes"
	"context"
	"net/netip"
	"sync"
	"testing"
	"time"

	"github.com/stealthy-peers/pdnsec/internal/capture"
	"github.com/stealthy-peers/pdnsec/internal/cdn"
	"github.com/stealthy-peers/pdnsec/internal/defense"
	"github.com/stealthy-peers/pdnsec/internal/media"
	"github.com/stealthy-peers/pdnsec/internal/netsim"
	"github.com/stealthy-peers/pdnsec/internal/provider"
	"github.com/stealthy-peers/pdnsec/internal/signal"
)

// runSeeder starts a lingering seeder and waits until it has played all
// segments; the returned stop function ends it and yields final stats.
func runSeeder(t *testing.T, cfg Config, segments int) func() Stats {
	t.Helper()
	cfg.MaxSegments = segments
	cfg.Linger = time.Minute
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	done := make(chan Stats, 1)
	go func() {
		st, _ := p.Run(ctx)
		done <- st
	}()
	waitFor(t, 30*time.Second, func() bool { return p.Stats().SegmentsPlayed >= segments })
	return func() Stats {
		p.StopLinger()
		st := <-done
		cancel()
		return st
	}
}

func TestTURNModeLeaksNothing(t *testing.T) {
	tb := newTestbed(t, provider.Peer5(), smallVideo("bbb", 6))

	relayHost := tb.net.MustHost(netip.MustParseAddr("50.50.50.50"))
	relay := defense.NewTURNRelay()
	if err := relay.Serve(relayHost, 3479); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { relay.Close() })
	relayAddr := netip.MustParseAddrPort("50.50.50.50:3479")

	cfgA := tb.peerConfig(t)
	cfgA.TURNAddr = relayAddr
	recA := capture.NewRecorder(0)
	cfgA.Host.AddTap(recA.Tap)
	stopA := runSeeder(t, cfgA, 6)

	cfgB := tb.peerConfig(t)
	cfgB.TURNAddr = relayAddr
	pb, err := New(cfgB)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	stB, err := pb.Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	stA := stopA()

	if stB.FromP2P == 0 {
		t.Fatalf("TURN-relayed P2P delivered nothing: %+v", stB)
	}
	if stA.P2PUpBytes != stB.P2PDownBytes {
		t.Fatalf("relayed accounting mismatch: up %d, down %d", stA.P2PUpBytes, stB.P2PDownBytes)
	}
	if relay.RelayedBytes() == 0 {
		t.Fatal("relay carried no bytes")
	}
	// A's capture never contains B's address: only the CDN, the
	// signaling server, and the relay.
	allowed := map[netip.Addr]bool{
		cfgA.Host.Addr():                     true,
		netip.MustParseAddr("50.50.50.50"):   true,
		netip.MustParseAddr("44.1.1.1"):      true,
		netip.MustParseAddr("93.184.216.34"): true,
	}
	for _, pkt := range recA.Packets() {
		for _, a := range []netip.Addr{pkt.Src.Addr(), pkt.Dst.Addr()} {
			if !allowed[a] {
				t.Fatalf("peer A observed foreign address %v over TURN", a)
			}
		}
	}
}

func TestUploadBudgetStopsServing(t *testing.T) {
	video := smallVideo("bbb", 6)
	tb := newTestbed(t, provider.Peer5(), video)
	// Redeploy with a tight upload budget: roughly two segments.
	tb.dep.Close()
	pol := signal.DefaultPolicy()
	pol.MaxUploadBytes = int64(2 * 32 << 10)
	sigHost := tb.net.Host(netip.MustParseAddr("44.1.1.1"))
	_ = sigHost
	// Simpler: use a fresh testbed with a policy override.
	tb2 := newTestbedWithPolicy(t, provider.Peer5(), video, &pol)

	cfgA := tb2.peerConfig(t)
	stopA := runSeeder(t, cfgA, 6)

	cfgB := tb2.peerConfig(t)
	pb, _ := New(cfgB)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	stB, err := pb.Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	stA := stopA()

	if stA.P2PUpBytes > pol.MaxUploadBytes+int64(32<<10) {
		t.Fatalf("seeder uploaded %d, budget %d", stA.P2PUpBytes, pol.MaxUploadBytes)
	}
	if stB.SegmentsPlayed != 6 {
		t.Fatalf("viewer must complete via CDN fallback: %+v", stB)
	}
	if stB.FromCDN < 4 {
		t.Fatalf("budget should force CDN fallback: %+v", stB)
	}
}

// newTestbedWithPolicy deploys a provider with a policy override.
func newTestbedWithPolicy(t *testing.T, prof provider.Profile, video *media.Video, pol *signal.Policy) *testbed {
	t.Helper()
	n := netsim.New(netsim.Config{})
	cdnHost := n.MustHost(netip.MustParseAddr("93.185.216.34"))
	cdnSrv := cdn.New()
	cdnSrv.Register(video)
	if err := cdnSrv.Serve(cdnHost, 80); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cdnSrv.Close() })
	sigHost := n.MustHost(netip.MustParseAddr("44.2.2.2"))
	dep, err := provider.Deploy(context.Background(), prof, sigHost, provider.Options{Seed: 42, PolicyOverride: pol})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { dep.Close() })
	tb := &testbed{net: n, cdnSrv: cdnSrv, cdnBase: "http://93.185.216.34:80", dep: dep, video: video}
	if prof.Public {
		tb.key = dep.IssueKey("customer.com")
	}
	return tb
}

func TestLiveStreamPlayback(t *testing.T) {
	const segBytes = 16 << 10
	video := &media.Video{
		ID:              "live-ch",
		Renditions:      []media.Rendition{{Name: "360p", Bandwidth: segBytes * 8 / 10, SegmentBytes: segBytes}},
		Segments:        100,
		SegmentDuration: 10,
		Live:            true,
	}
	tb := newTestbed(t, provider.Peer5(), video)
	// Advance the live clock so a window exists, then keep it moving.
	base := time.Now().Add(-60 * time.Second) // edge at segment 6
	tb.cdnSrv.SetClock(func() time.Time { return time.Now().Add(time.Now().Sub(base) * 4) })

	cfg := tb.peerConfig(t)
	cfg.MaxSegments = 8
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	st, err := p.Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.SegmentsPlayed != 8 {
		t.Fatalf("live playback played %d/8 segments", st.SegmentsPlayed)
	}
}

// TestLivePlayedBounded: a long live session keeps played marks only for
// the segments its playlist can still list, not one per segment ever
// played.
func TestLivePlayedBounded(t *testing.T) {
	const played = 220
	video := &media.Video{
		ID:              "live-long",
		Renditions:      []media.Rendition{{Name: "360p", Bandwidth: 8 << 10, SegmentBytes: 1 << 10}},
		Segments:        10 * played,
		SegmentDuration: 0.001,
		Live:            true,
	}
	tb := newTestbed(t, provider.Peer5(), video)
	// Each playlist request finds the edge one segment further on.
	var mu sync.Mutex
	now := time.Now().Add(cdn.LiveWindow * time.Millisecond)
	tb.cdnSrv.SetClock(func() time.Time {
		mu.Lock()
		defer mu.Unlock()
		now = now.Add(time.Millisecond)
		return now
	})

	cfg := tb.peerConfig(t)
	cfg.DisableP2P = true
	cfg.MaxSegments = played
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	st, err := p.Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.SegmentsPlayed != played {
		t.Fatalf("played %d/%d segments", st.SegmentsPlayed, played)
	}
	p.mu.Lock()
	marks := len(p.played)
	p.mu.Unlock()
	if marks > cdn.LiveWindow+1 {
		t.Errorf("%d played marks after %d live segments, want ≤ %d", marks, played, cdn.LiveWindow+1)
	}
}

func TestPacketLossStillConnects(t *testing.T) {
	// 10% UDP loss: ICE retransmits and still nominates a pair.
	const segBytes = 16 << 10
	video := smallVideo("bbb", 6)
	n := netsim.New(netsim.Config{LossProb: 0.10, Seed: 3})
	cdnHost := n.MustHost(netip.MustParseAddr("93.184.216.34"))
	cdnSrv := cdn.New()
	cdnSrv.Register(video)
	if err := cdnSrv.Serve(cdnHost, 80); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cdnSrv.Close() })
	sigHost := n.MustHost(netip.MustParseAddr("44.1.1.1"))
	dep, err := provider.Deploy(context.Background(), provider.Peer5(), sigHost, provider.Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { dep.Close() })
	tb := &testbed{net: n, cdnSrv: cdnSrv, cdnBase: "http://93.184.216.34:80", dep: dep, video: video, key: dep.IssueKey("customer.com")}
	_ = segBytes

	cfgA := tb.peerConfig(t)
	stopA := runSeeder(t, cfgA, 6)
	cfgB := tb.peerConfig(t)
	pb, _ := New(cfgB)
	ctx, cancel := context.WithTimeout(context.Background(), 90*time.Second)
	defer cancel()
	stB, err := pb.Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	stopA()
	if stB.SegmentsPlayed != 6 {
		t.Fatalf("lossy network: played %d/6", stB.SegmentsPlayed)
	}
	if stB.FromP2P == 0 {
		t.Fatalf("ICE should survive 10%% loss and still deliver P2P: %+v", stB)
	}
}

func TestThreePeerSwarmConvergence(t *testing.T) {
	video := smallVideo("bbb", 8)
	tb := newTestbed(t, provider.Peer5(), video)

	cfgA := tb.peerConfig(t)
	stopA := runSeeder(t, cfgA, 8)

	// Two later viewers join concurrently; both should finish and at
	// least one should pull from P2P.
	results := make(chan Stats, 2)
	for i := 0; i < 2; i++ {
		cfg := tb.peerConfig(t)
		cfg.Linger = 2 * time.Second
		p, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		go func() {
			ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
			defer cancel()
			st, _ := p.Run(ctx)
			results <- st
		}()
	}
	totalP2P := 0
	for i := 0; i < 2; i++ {
		st := <-results
		if st.SegmentsPlayed != 8 {
			t.Fatalf("viewer played %d/8: %+v", st.SegmentsPlayed, st)
		}
		totalP2P += st.FromP2P
	}
	stopA()
	if totalP2P == 0 {
		t.Fatal("no P2P in a three-peer swarm")
	}
}

func TestNATedViewersExchangeViaSrflx(t *testing.T) {
	video := smallVideo("bbb", 6)
	tb := newTestbed(t, provider.Peer5(), video)

	natA := tb.net.MustNAT(netip.MustParseAddr("5.5.5.5"), netsim.NATFullCone)
	hostA := natA.MustHost(netip.MustParseAddr("192.168.10.2"))
	cfgA := tb.peerConfig(t)
	cfgA.Host = hostA
	stopA := runSeeder(t, cfgA, 6)

	natB := tb.net.MustNAT(netip.MustParseAddr("6.6.6.6"), netsim.NATFullCone)
	hostB := natB.MustHost(netip.MustParseAddr("192.168.20.2"))
	cfgB := tb.peerConfig(t)
	cfgB.Host = hostB
	pb, _ := New(cfgB)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	stB, err := pb.Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	stopA()
	if stB.FromP2P == 0 {
		t.Fatalf("NATed viewers should connect via srflx candidates: %+v", stB)
	}
}

func TestGracefulDegradeWhenPDNBlocked(t *testing.T) {
	// The paper's reference [16]: viewers block the PDN server's domain
	// (AdblockPlus filter against Douyu). The SDK must degrade to plain
	// CDN playback rather than break the video.
	tb := newTestbed(t, provider.Peer5(), smallVideo("bbb", 4))
	cfg := tb.peerConfig(t)
	cfg.SignalAddrs = []netip.AddrPort{netip.MustParseAddrPort("10.66.66.66:443")} // blocked/blackholed
	cfg.GracefulDegrade = true
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	st, err := p.Run(ctx)
	if err != nil {
		t.Fatalf("degraded viewer should still play: %v", err)
	}
	if st.SegmentsPlayed != 4 || st.FromCDN != 4 || st.FromP2P != 0 {
		t.Fatalf("degraded stats %+v", st)
	}
	if tb.dep.PeerCount() != 0 {
		t.Fatal("blocked viewer must not appear in the swarm")
	}
}

func TestSwarmScale(t *testing.T) {
	if testing.Short() {
		t.Skip("swarm scale test skipped in -short mode")
	}
	video := smallVideo("bbb", 6)
	tb := newTestbed(t, provider.Peer5(), video)

	cfgSeed := tb.peerConfig(t)
	stopSeed := runSeeder(t, cfgSeed, 6)

	const viewers = 12
	results := make(chan Stats, viewers)
	for i := 0; i < viewers; i++ {
		cfg := tb.peerConfig(t)
		cfg.Linger = 3 * time.Second
		p, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		go func() {
			ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
			defer cancel()
			st, _ := p.Run(ctx)
			results <- st
			p.StopLinger()
		}()
		time.Sleep(50 * time.Millisecond)
	}
	totalP2P, totalCDN := 0, 0
	for i := 0; i < viewers; i++ {
		st := <-results
		if st.SegmentsPlayed != 6 {
			t.Fatalf("viewer %d played %d/6", i, st.SegmentsPlayed)
		}
		totalP2P += st.FromP2P
		totalCDN += st.FromCDN
	}
	stopSeed()
	offload := float64(totalP2P) / float64(totalP2P+totalCDN)
	t.Logf("swarm of %d: %d P2P, %d CDN segments (%.0f%% offload)", viewers, totalP2P, totalCDN, offload*100)
	if offload < 0.3 {
		t.Fatalf("swarm offload %.2f too low; the PDN is not doing its job", offload)
	}
}

// TestPeriodicStatsReportDeltas: billed usage equals the two peers' session
// totals — each peer reports its totals once, at session end.
func TestPeriodicStatsReportDeltas(t *testing.T) {
	video := smallVideo("bbb", 6)
	tb := newTestbed(t, provider.Peer5(), video)

	stopA := runSeeder(t, tb.peerConfig(t), 6)

	pb, _ := New(tb.peerConfig(t))
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	stB, err := pb.Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	stA := stopA()

	waitFor(t, 5*time.Second, func() bool {
		u := tb.dep.Keys.Usage("customer.com")
		want := stA.P2PUpBytes + stA.P2PDownBytes + stB.P2PUpBytes + stB.P2PDownBytes
		return u.P2PBytes == want
	})
}

// TestSeederCacheSurvivesWireCorruption: the record layer hands its
// buffer to the stream, and a corrupting wire flips bytes in whatever
// buffer it is handed — so what a seeder sends must be a copy of its
// cache, never the cache. A seeder serves three viewers, its host's
// streams start flipping bytes mid-session, and afterwards every cached
// segment is still the CDN's bytes (run under -race: an aliased cache
// is also a data race between the wire and the next serve).
func TestSeederCacheSurvivesWireCorruption(t *testing.T) {
	const segments, viewers = 8, 3
	video := smallVideo("bbb", segments)
	tb := newTestbed(t, provider.Peer5(), video)

	cfg := tb.peerConfig(t)
	cfg.MaxSegments = segments
	cfg.Linger = time.Minute
	seeder, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	seederDone := make(chan struct{})
	go func() {
		defer close(seederDone)
		seeder.Run(ctx)
	}()
	waitFor(t, 30*time.Second, func() bool { return seeder.Stats().SegmentsPlayed >= segments })

	results := make(chan Stats, viewers)
	for i := 0; i < viewers; i++ {
		vcfg := tb.peerConfig(t)
		vcfg.Pace = 20 * time.Millisecond // leaves wants to serve after the wire turns
		viewer, err := New(vcfg)
		if err != nil {
			t.Fatal(err)
		}
		go func() {
			st, _ := viewer.Run(ctx)
			results <- st
		}()
	}
	// Handshakes do not survive a corrupting wire, so it turns only once
	// a connection is up and serving — and only once every viewer is the
	// seeder's neighbor. The wire also carries the seeder's signaling, so
	// an answer to a late viewer's offer sent through it is garbage to the
	// server, which drops the seeder and tells the swarm it is gone before
	// any viewer asks it for another segment.
	waitFor(t, 30*time.Second, func() bool {
		st := seeder.Stats()
		return st.P2PUpBytes > 0 && st.Neighbors == viewers
	})
	tb.net.CorruptStreams(cfg.Host.Addr(), 1, false)
	clean := seeder.Stats().P2PUpBytes
	// Until a segment has been served through the corruption; then the
	// wire heals, so the viewers' reconnects do not sit out their timeouts.
	waitFor(t, 30*time.Second, func() bool { return seeder.Stats().P2PUpBytes > clean })
	tb.net.ClearCorrupt(cfg.Host.Addr())

	for i := 0; i < viewers; i++ {
		if st := <-results; st.SegmentsPlayed != segments {
			t.Fatalf("viewer played %d/%d: %+v", st.SegmentsPlayed, segments, st)
		}
	}
	for i := 0; i < segments; i++ {
		want, err := video.SegmentData("360p", i)
		if err != nil {
			t.Fatal(err)
		}
		if got, ok := seeder.CachedSegment(i); !ok || !bytes.Equal(got, want) {
			t.Errorf("seeder's cached segment %d is not the CDN's bytes (held=%v)", i, ok)
		}
	}
	seeder.StopLinger()
	<-seederDone
}
