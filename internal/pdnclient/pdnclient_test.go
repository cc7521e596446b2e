package pdnclient

import (
	"bytes"
	"context"
	"net/netip"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/stealthy-peers/pdnsec/internal/capture"
	"github.com/stealthy-peers/pdnsec/internal/cdn"
	"github.com/stealthy-peers/pdnsec/internal/media"
	"github.com/stealthy-peers/pdnsec/internal/monitor"
	"github.com/stealthy-peers/pdnsec/internal/netsim"
	"github.com/stealthy-peers/pdnsec/internal/obs"
	"github.com/stealthy-peers/pdnsec/internal/provider"
)

// testbed is a full PDN deployment: network, CDN, provider, one video.
type testbed struct {
	net     *netsim.Network
	cdnSrv  *cdn.Server
	cdnBase string
	dep     *provider.Deployment
	key     string
	video   *media.Video
	nextIP  byte
	mu      sync.Mutex
	// reg holds the signaling server's counters.
	reg *obs.Registry
}

func smallVideo(id string, segments int) *media.Video {
	const segBytes = 32 << 10
	return &media.Video{
		ID: id,
		// Declared bandwidth consistent with the actual segment size, as
		// real encoders produce: the SDK derives its consistency check
		// from duration × bandwidth.
		Renditions:      []media.Rendition{{Name: "360p", Bandwidth: segBytes * 8 / 10, SegmentBytes: segBytes}},
		Segments:        segments,
		SegmentDuration: 10,
	}
}

func newTestbed(t *testing.T, prof provider.Profile, video *media.Video) *testbed {
	t.Helper()
	n := netsim.New(netsim.Config{})

	cdnHost := n.MustHost(netip.MustParseAddr("93.184.216.34"))
	cdnSrv := cdn.New()
	cdnSrv.Register(video)
	if err := cdnSrv.Serve(cdnHost, 80); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cdnSrv.Close() })

	sigHost := n.MustHost(netip.MustParseAddr("44.1.1.1"))
	reg := obs.NewRegistry()
	dep, err := provider.Deploy(context.Background(), prof, sigHost, provider.Options{Seed: 42, Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { dep.Close() })

	tb := &testbed{
		reg:     reg,
		net:     n,
		cdnSrv:  cdnSrv,
		cdnBase: "http://93.184.216.34:80",
		dep:     dep,
		video:   video,
	}
	if prof.Public {
		tb.key = dep.IssueKey("customer.com")
	}
	return tb
}

// peerConfig builds a default config for a new public peer host.
func (tb *testbed) peerConfig(t *testing.T) Config {
	t.Helper()
	tb.mu.Lock()
	tb.nextIP++
	ip := netip.AddrFrom4([4]byte{66, 24, 9, tb.nextIP})
	tb.mu.Unlock()
	host := tb.net.MustHost(ip)
	return Config{
		Host:        host,
		Network:     tb.net,
		SignalAddrs: tb.dep.SignalAddrs,
		STUNAddr:    tb.dep.STUNAddr,
		CDNBase:     tb.cdnBase,
		APIKey:      tb.key,
		Origin:      "https://customer.com",
		Video:       tb.video.ID,
		Rendition:   "360p",
		Seed:        int64(tb.nextIP),
	}
}

func TestSinglePeerPlaysFromCDN(t *testing.T) {
	tb := newTestbed(t, provider.Peer5(), smallVideo("bbb", 4))
	cfg := tb.peerConfig(t)
	var played []media.SegmentKey
	var mu sync.Mutex
	cfg.OnSegment = func(k media.SegmentKey, data []byte, source string) {
		mu.Lock()
		defer mu.Unlock()
		played = append(played, k)
		if !tb.video.Verify(k.Rendition, k.Index, data) {
			t.Errorf("segment %v corrupt from %s", k, source)
		}
	}
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	st, err := p.Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.SegmentsPlayed != 4 || st.FromCDN != 4 || st.FromP2P != 0 {
		t.Fatalf("stats %+v", st)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(played) != 4 {
		t.Fatalf("played %d segments", len(played))
	}
}

// TestLoneViewerSendsNoSTUN: a viewer alone in its swarm joins, plays
// and leaves without ever opening a connection, and its host capture
// holds no STUN message. Candidates are gathered per connection attempt,
// and the join carries none.
func TestLoneViewerSendsNoSTUN(t *testing.T) {
	tb := newTestbed(t, provider.Peer5(), smallVideo("bbb", 4))
	cfg := tb.peerConfig(t)
	rec := capture.NewRecorder(0)
	cfg.Host.AddTap(rec.Tap)
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	st, err := p.Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.SegmentsPlayed != 4 || st.Neighbors != 0 || p.session().peerID == "" {
		t.Fatalf("want a joined viewer that played alone: stats %+v, peer %q", st, p.session().peerID)
	}
	pkts := rec.Packets()
	if stuns := capture.FindSTUN(pkts); len(stuns) != 0 {
		t.Fatalf("a viewer that never connects sent %d STUN messages, first to %v", len(stuns), stuns[0].Packet.Dst)
	}
	var uplink []byte
	for _, pkt := range pkts {
		if pkt.Dir == netsim.DirOut && slices.Contains(tb.dep.SignalAddrs, pkt.Dst) {
			uplink = append(uplink, pkt.Payload...)
		}
	}
	if len(uplink) == 0 {
		t.Fatal("capture holds no signaling uplink")
	}
	for _, key := range []string{`"candidates"`, `"cellular"`} {
		if bytes.Contains(uplink, []byte(key)) {
			t.Errorf("signaling uplink carries %s", key)
		}
	}
}

func TestTwoPeersShareSegmentsP2P(t *testing.T) {
	tb := newTestbed(t, provider.Peer5(), smallVideo("bbb", 6))

	// Peer A plays everything from the CDN and lingers to serve.
	stopA := runSeeder(t, tb.peerConfig(t), 6)

	// Peer B arrives later: slow-start from CDN, then P2P from A.
	cfgB := tb.peerConfig(t)
	verified := make(chan bool, 16)
	cfgB.OnSegment = func(k media.SegmentKey, data []byte, source string) {
		verified <- tb.video.Verify(k.Rendition, k.Index, data)
	}
	pb, err := New(cfgB)
	if err != nil {
		t.Fatal(err)
	}
	ctxB, cancelB := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancelB()
	stB, err := pb.Run(ctxB)
	if err != nil {
		t.Fatal(err)
	}
	if stB.SegmentsPlayed != 6 {
		t.Fatalf("B played %d/6", stB.SegmentsPlayed)
	}
	if stB.FromCDN < 2 {
		t.Fatalf("slow start should force >=2 CDN segments, got %d", stB.FromCDN)
	}
	if stB.FromP2P == 0 {
		t.Fatalf("B got nothing over P2P: %+v", stB)
	}
	for i := 0; i < stB.SegmentsPlayed; i++ {
		if !<-verified {
			t.Fatal("B played a corrupt segment")
		}
	}

	// A's upload accounting matches B's P2P download.
	stA := stopA()
	if stA.P2PUpBytes != stB.P2PDownBytes {
		t.Fatalf("upload %d != download %d", stA.P2PUpBytes, stB.P2PDownBytes)
	}
	if stB.P2PDownBytes == 0 {
		t.Fatal("no P2P bytes moved")
	}
}

func TestStatsBillCustomer(t *testing.T) {
	tb := newTestbed(t, provider.Peer5(), smallVideo("bbb", 6))
	stopA := runSeeder(t, tb.peerConfig(t), 6)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	cfgB := tb.peerConfig(t)
	pb, _ := New(cfgB)
	stB, err := pb.Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if stB.FromP2P == 0 {
		t.Skip("no P2P traffic this run")
	}
	stopA()
	waitFor(t, 10*time.Second, func() bool {
		return tb.dep.Keys.Usage("customer.com").P2PBytes > 0
	})
}

func TestCellularLeechModeRefusesUpload(t *testing.T) {
	tb := newTestbed(t, provider.Peer5(), smallVideo("bbb", 6))

	// A is on cellular; default policy allows cellular download but not
	// upload — A must refuse to serve B.
	cfgA := tb.peerConfig(t)
	cfgA.Cellular = true
	stopA := runSeeder(t, cfgA, 6)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	cfgB := tb.peerConfig(t)
	pb, _ := New(cfgB)
	stB, err := pb.Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	stA := stopA()
	if stB.FromP2P != 0 {
		t.Fatalf("leech-mode peer served %d segments", stB.FromP2P)
	}
	if stA.P2PUpBytes != 0 {
		t.Fatal("cellular peer uploaded despite leech policy")
	}
	if stB.SegmentsPlayed != 6 {
		t.Fatalf("B should fall back to CDN: %+v", stB)
	}
}

func TestDisableP2PIsPureCDNViewer(t *testing.T) {
	tb := newTestbed(t, provider.Peer5(), smallVideo("bbb", 3))
	cfg := tb.peerConfig(t)
	cfg.DisableP2P = true
	cfg.APIKey = "" // never touches the PDN
	p, _ := New(cfg)
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	st, err := p.Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.FromCDN != 3 || st.FromP2P != 0 {
		t.Fatalf("stats %+v", st)
	}
	if tb.dep.PeerCount() != 0 {
		t.Fatal("no-P2P viewer must not join the PDN")
	}
}

func TestMeterSeesCryptoAndCache(t *testing.T) {
	tb := newTestbed(t, provider.Peer5(), smallVideo("bbb", 6))
	stopA := runSeeder(t, tb.peerConfig(t), 6)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	meter := monitor.NewMeter(monitor.DefaultCostModel(), nil)
	cfgB := tb.peerConfig(t)
	cfgB.Meter = meter
	pb, _ := New(cfgB)
	stB, err := pb.Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	stopA()
	u := meter.Snapshot()
	if u.PlayBytes == 0 {
		t.Fatal("meter saw no playback")
	}
	if stB.FromP2P > 0 && u.DecryptBytes == 0 {
		t.Fatal("P2P download should register decrypt work")
	}
	if u.MemBytes <= monitor.DefaultCostModel().BaseMemBytes {
		t.Fatal("PDN footprint not reflected in memory model")
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("missing host/network should fail")
	}
	n := netsim.New(netsim.Config{})
	h := n.MustHost(netip.MustParseAddr("10.0.0.1"))
	if _, err := New(Config{Host: h, Network: n}); err == nil {
		t.Fatal("missing video should fail")
	}
}

func TestJoinFailureSurfaces(t *testing.T) {
	tb := newTestbed(t, provider.Viblast(), smallVideo("bbb", 2))
	cfg := tb.peerConfig(t)
	cfg.APIKey = tb.key
	cfg.Origin = "https://attacker.evil" // Viblast allowlist blocks this
	p, _ := New(cfg)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if _, err := p.Run(ctx); err == nil {
		t.Fatal("join should fail cross-domain against Viblast")
	}
}

func TestSegmentCache(t *testing.T) {
	var size int64
	c := newSegmentCache(3, func(n int64) { size = n })
	for i := 0; i < 5; i++ {
		c.put(i, make([]byte, 10))
	}
	if len(c.indices()) != 3 {
		t.Fatalf("cache kept %d segments", len(c.indices()))
	}
	if _, ok := c.get(0); ok {
		t.Fatal("oldest segment should be evicted")
	}
	if _, ok := c.get(4); !ok {
		t.Fatal("newest segment missing")
	}
	if size != 30 || c.size() != 30 {
		t.Fatalf("size %d/%d", size, c.size())
	}
	// Overwrite does not double count.
	c.put(4, make([]byte, 20))
	if c.size() != 40 {
		t.Fatalf("size after overwrite %d", c.size())
	}
}

// TestCachedIndicesAscending: Peer.CachedIndices lists the cache in
// ascending order, whatever order its map iterates in, so the audits
// and fault lines that print it read the same on every run.
func TestCachedIndicesAscending(t *testing.T) {
	const n = 40
	c := newSegmentCache(n, nil)
	want := make([]int, n)
	for i := range want {
		want[i] = i
		c.put(i, make([]byte, 1))
	}
	for round := 0; round < 5; round++ {
		if got := c.indices(); !slices.Equal(got, want) {
			t.Fatalf("indices() = %v, want %v", got, want)
		}
	}
}

// TestP2PMessageCodec pins the frame header's wire layout and its
// bounds: what appendMsg cannot encode in the layout it refuses.
func TestP2PMessageCodec(t *testing.T) {
	key := media.SegmentKey{Video: "v", Rendition: "r", Index: 0x010203}
	for _, tc := range []struct {
		h    p2pMsg
		wire []byte
	}{
		{p2pMsg{Op: opSegment, Key: key, Found: true}, []byte{2, 1, 0, 1, 2, 3, 0, 1, 'v', 0, 1, 'r', 0, 0}},
		{p2pMsg{Op: opSegment, Key: key}, []byte{2, 0, 0, 1, 2, 3, 0, 1, 'v', 0, 1, 'r', 0, 0}},
		{p2pMsg{Op: opWant, Key: key, Trace: "tc"}, []byte{1, 0, 0, 1, 2, 3, 0, 1, 'v', 0, 1, 'r', 0, 2, 't', 'c'}},
	} {
		got, err := appendMsg(nil, tc.h)
		if err != nil || !bytes.Equal(got, tc.wire) {
			t.Errorf("appendMsg(%+v) = %v, %v; want %v", tc.h, got, err, tc.wire)
		}
		if h, err := decodeMsg(tc.wire, p2pMsg{}); err != nil || h != tc.h {
			t.Errorf("decodeMsg(%v) = %+v, %v; want %+v", tc.wire, h, err, tc.h)
		}
	}
	long := strings.Repeat("x", 1<<16)
	for _, h := range []p2pMsg{
		{Op: opWant, Key: media.SegmentKey{Video: "v", Rendition: "r", Index: -1}},
		{Op: opWant, Key: media.SegmentKey{Video: "v", Rendition: "r", Index: 1 << 32}},
		{Op: opWant, Key: media.SegmentKey{Video: long, Rendition: "r"}},
		{Op: opWant, Key: media.SegmentKey{Video: "v", Rendition: long}},
		{Op: opWant, Key: key, Trace: long},
	} {
		if _, err := appendMsg(nil, h); err == nil {
			t.Errorf("appendMsg encoded a header outside the layout: index %d, field lengths %d/%d/%d",
				h.Key.Index, len(h.Key.Video), len(h.Key.Rendition), len(h.Trace))
		}
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
