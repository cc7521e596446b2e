package signal

import (
	"context"
	"errors"
	"net/netip"
	"strconv"
	"testing"
	"time"

	"github.com/stealthy-peers/pdnsec/internal/auth"
	"github.com/stealthy-peers/pdnsec/internal/geoip"
	"github.com/stealthy-peers/pdnsec/internal/ice"
	"github.com/stealthy-peers/pdnsec/internal/media"
	"github.com/stealthy-peers/pdnsec/internal/netsim"
)

const serverIP = "44.44.44.44"

// testCtx backs the client calls whose cancellation is irrelevant to
// the test at hand.
var testCtx = context.Background()

type env struct {
	net    *netsim.Network
	server *Server
	keys   *auth.Registry
	addr   netip.AddrPort
	nextIP int
}

func newEnv(t *testing.T, mut func(*Config)) *env {
	t.Helper()
	n := netsim.New(netsim.Config{})
	host := n.MustHost(netip.MustParseAddr(serverIP))
	keys := auth.NewRegistry(auth.PlanPerTraffic)
	cfg := Config{Keys: keys, RequireAuth: true, Policy: DefaultPolicy(), Seed: 1}
	if mut != nil {
		mut(&cfg)
	}
	srv := NewServer(cfg)
	if err := srv.Serve(host, 443); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return &env{net: n, server: srv, keys: keys, addr: netip.MustParseAddrPort(serverIP + ":443")}
}

func (e *env) newPeerHost(t *testing.T, ip string) *netsim.Host {
	t.Helper()
	return e.net.MustHost(netip.MustParseAddr(ip))
}

func (e *env) dial(t *testing.T, host *netsim.Host) *Client {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
	defer cancel()
	c, err := Dial(ctx, host, e.addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func basicJoin(key string) JoinRequest {
	return JoinRequest{
		APIKey:      key,
		Origin:      "https://customer.com",
		Video:       "bbb",
		Rendition:   "720p",
		Fingerprint: "fp",
		Candidates:  []ice.Candidate{{Type: ice.TypeHost, Addr: netip.MustParseAddrPort("66.24.0.1:5000"), Priority: 100}},
	}
}

func TestJoinWithValidKey(t *testing.T) {
	e := newEnv(t, nil)
	key := e.keys.Issue("customer.com", nil)
	c := e.dial(t, e.newPeerHost(t, "66.24.0.1"))
	w, err := c.Join(testCtx, basicJoin(key))
	if err != nil {
		t.Fatal(err)
	}
	if w.PeerID == "" || w.SwarmID != "bbb/720p" {
		t.Fatalf("welcome %+v", w)
	}
	if !w.Policy.P2PEnabled {
		t.Fatal("default policy should enable P2P")
	}
	if e.server.PeerCount() != 1 || e.server.SwarmSize("bbb", "720p") != 1 {
		t.Fatal("server should track the peer")
	}
	if u := e.keys.Usage("customer.com"); u.Joins != 1 {
		t.Fatalf("joins not metered: %+v", u)
	}
}

func TestJoinRejectsBadKey(t *testing.T) {
	e := newEnv(t, nil)
	c := e.dial(t, e.newPeerHost(t, "66.24.0.1"))
	_, err := c.Join(testCtx, basicJoin("stolen-but-wrong"))
	se, ok := err.(*ServerError)
	if !ok || se.Info.Code != CodeAuthFailed {
		t.Fatalf("err = %v", err)
	}
}

func TestJoinAllowlistAndSpoof(t *testing.T) {
	e := newEnv(t, nil)
	key := e.keys.Issue("customer.com", []string{"customer.com"})

	// Cross-domain: attacker's own origin is denied.
	c1 := e.dial(t, e.newPeerHost(t, "66.24.0.2"))
	req := basicJoin(key)
	req.Origin = "https://attacker.evil"
	if _, err := c1.Join(testCtx, req); err == nil {
		t.Fatal("cross-domain join should be rejected with allowlist")
	}

	// Domain-spoofing: claiming the victim origin passes, because the
	// server can only see the client-reported header.
	c2 := e.dial(t, e.newPeerHost(t, "66.24.0.3"))
	spoof := basicJoin(key)
	spoof.Origin = "https://customer.com"
	if _, err := c2.Join(testCtx, spoof); err != nil {
		t.Fatalf("spoofed join should pass: %v", err)
	}
}

func TestJoinRefererFallback(t *testing.T) {
	e := newEnv(t, nil)
	key := e.keys.Issue("customer.com", []string{"customer.com"})
	c := e.dial(t, e.newPeerHost(t, "66.24.0.4"))
	req := basicJoin(key)
	req.Origin = ""
	req.Referer = "https://customer.com/watch/1"
	if _, err := c.Join(testCtx, req); err != nil {
		t.Fatalf("referer fallback: %v", err)
	}
}

func TestGetPeersMatchesSwarm(t *testing.T) {
	e := newEnv(t, nil)
	key := e.keys.Issue("customer.com", nil)

	// Two peers in bbb/720p, one in a different swarm.
	cA := e.dial(t, e.newPeerHost(t, "66.24.0.1"))
	if _, err := cA.Join(testCtx, basicJoin(key)); err != nil {
		t.Fatal(err)
	}
	cB := e.dial(t, e.newPeerHost(t, "66.24.0.2"))
	wB, err := cB.Join(testCtx, basicJoin(key))
	if err != nil {
		t.Fatal(err)
	}
	cC := e.dial(t, e.newPeerHost(t, "66.24.0.3"))
	other := basicJoin(key)
	other.Video = "different"
	if _, err := cC.Join(testCtx, other); err != nil {
		t.Fatal(err)
	}

	peers, err := cA.GetPeers(testCtx, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(peers) != 1 || peers[0].ID != wB.PeerID {
		t.Fatalf("peers %+v, want only B (%s)", peers, wB.PeerID)
	}
	if len(peers[0].Candidates) != 1 {
		t.Fatal("candidates should be propagated — this is the IP leak")
	}
}

func TestGetPeersHonorsMax(t *testing.T) {
	e := newEnv(t, nil)
	key := e.keys.Issue("customer.com", nil)
	for i := 0; i < 5; i++ {
		c := e.dial(t, e.newPeerHost(t, "66.24.1."+string(rune('1'+i))))
		if _, err := c.Join(testCtx, basicJoin(key)); err != nil {
			t.Fatal(err)
		}
	}
	c := e.dial(t, e.newPeerHost(t, "66.24.0.9"))
	if _, err := c.Join(testCtx, basicJoin(key)); err != nil {
		t.Fatal(err)
	}
	peers, err := c.GetPeers(testCtx, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(peers) != 2 {
		t.Fatalf("max not honored: %d", len(peers))
	}
}

func TestGeoMatchFiltersForeignPeers(t *testing.T) {
	db := geoip.NewDB()
	e := newEnv(t, func(c *Config) {
		c.GeoDB = db
		c.Policy.GeoMatchCountry = true
	})
	key := e.keys.Issue("customer.com", nil)

	// US peer and CN peer in the same swarm (addresses from the default
	// geo plan).
	usHost := e.newPeerHost(t, "66.24.0.1")  // US prefix
	cnHost := e.newPeerHost(t, "36.96.0.1")  // CN prefix
	us2Host := e.newPeerHost(t, "66.24.0.2") // US prefix

	cUS := e.dial(t, usHost)
	if _, err := cUS.Join(testCtx, basicJoin(key)); err != nil {
		t.Fatal(err)
	}
	cCN := e.dial(t, cnHost)
	if _, err := cCN.Join(testCtx, basicJoin(key)); err != nil {
		t.Fatal(err)
	}
	cUS2 := e.dial(t, us2Host)
	w2, err := cUS2.Join(testCtx, basicJoin(key))
	if err != nil {
		t.Fatal(err)
	}
	_ = w2

	peers, err := cUS.GetPeers(testCtx, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(peers) != 1 || peers[0].Country != "US" {
		t.Fatalf("geo matching failed: %+v", peers)
	}
	peersCN, err := cCN.GetPeers(testCtx, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(peersCN) != 0 {
		t.Fatalf("CN peer should see no foreign peers: %+v", peersCN)
	}
}

func TestRelayBetweenPeers(t *testing.T) {
	e := newEnv(t, nil)
	key := e.keys.Issue("customer.com", nil)
	cA := e.dial(t, e.newPeerHost(t, "66.24.0.1"))
	wA, err := cA.Join(testCtx, basicJoin(key))
	if err != nil {
		t.Fatal(err)
	}
	cB := e.dial(t, e.newPeerHost(t, "66.24.0.2"))
	wB, err := cB.Join(testCtx, basicJoin(key))
	if err != nil {
		t.Fatal(err)
	}

	got := make(chan Relay, 1)
	cB.OnRelay(func(r Relay) { got <- r })

	offer := ConnectOffer{Fingerprint: "fpA"}
	if err := cA.Relay(wB.PeerID, RelayOffer, offer); err != nil {
		t.Fatal(err)
	}
	select {
	case r := <-got:
		if r.From != wA.PeerID || r.Kind != RelayOffer {
			t.Fatalf("relay %+v", r)
		}
		var dec ConnectOffer
		if err := decodeJSON(r.Payload, &dec); err != nil || dec.Fingerprint != "fpA" {
			t.Fatalf("payload decode: %v %+v", err, dec)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("relay not delivered")
	}
}

func TestStatsBillTheCustomer(t *testing.T) {
	e := newEnv(t, nil)
	key := e.keys.Issue("victim.com", nil)
	c := e.dial(t, e.newPeerHost(t, "66.24.0.1"))
	req := basicJoin(key)
	req.Origin = "https://whatever.evil" // no allowlist: accepted
	if _, err := c.Join(testCtx, req); err != nil {
		t.Fatal(err)
	}
	if err := c.SendStats(Stats{P2PDownBytes: 1000, P2PUpBytes: 500, CDNDownBytes: 200}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, time.Second, func() bool {
		u := e.keys.Usage("victim.com")
		return u.P2PBytes == 1500 && u.CDNBytes == 200
	})
}

// boundTokens is a video-bound TokenValidator holding token → video URL
// (the real issuer, defense.TokenAuthority, would be an import cycle).
type boundTokens map[string]string

func (b boundTokens) Validate(token, videoURL string) error {
	if want, ok := b[token]; !ok || want != videoURL {
		return errors.New("token not valid for this video")
	}
	return nil
}

func TestPrivateTokenAuth(t *testing.T) {
	const tok = "viewer-token"
	e := newEnv(t, func(c *Config) {
		c.Keys = nil
		c.Tokens = boundTokens{tok: "https://cdn/v/bbb/master.m3u8"}
	})

	c := e.dial(t, e.newPeerHost(t, "66.24.0.1"))
	req := JoinRequest{Token: tok, VideoURL: "https://cdn/v/bbb/master.m3u8", Video: "bbb", Rendition: "720p"}
	if _, err := c.Join(testCtx, req); err != nil {
		t.Fatal(err)
	}

	// Token bound to another video fails.
	c2 := e.dial(t, e.newPeerHost(t, "66.24.0.2"))
	bad := req
	bad.VideoURL = "https://attacker/own.m3u8"
	if _, err := c2.Join(testCtx, bad); err == nil {
		t.Fatal("video-bound token must not validate for another URL")
	}
}

func TestNoAuthRequiredMode(t *testing.T) {
	e := newEnv(t, func(c *Config) {
		c.Keys = nil
		c.RequireAuth = false // Mango-style: no constraint
	})
	c := e.dial(t, e.newPeerHost(t, "66.24.0.1"))
	if _, err := c.Join(testCtx, JoinRequest{Video: "x", Rendition: "r"}); err != nil {
		t.Fatalf("unauthenticated join should pass in no-auth mode: %v", err)
	}
}

func TestFirstMessageMustBeJoin(t *testing.T) {
	e := newEnv(t, nil)
	c := e.dial(t, e.newPeerHost(t, "66.24.0.1"))
	if _, err := c.GetPeers(testCtx, 1); err == nil {
		t.Fatal("pre-join request should fail")
	}
}

func TestDisconnectLeavesSwarm(t *testing.T) {
	e := newEnv(t, nil)
	key := e.keys.Issue("customer.com", nil)
	c := e.dial(t, e.newPeerHost(t, "66.24.0.1"))
	if _, err := c.Join(testCtx, basicJoin(key)); err != nil {
		t.Fatal(err)
	}
	c.Close()
	waitFor(t, time.Second, func() bool { return e.server.PeerCount() == 0 })
	if e.server.SwarmSize("bbb", "720p") != 0 {
		t.Fatal("swarm not cleaned up")
	}
}

// fakeIM is a test IMService that blacklists a configured peer.
type fakeIM struct {
	blacklisted map[string]bool
}

func (f *fakeIM) Report(peerID string, key media.SegmentKey, hash string) error { return nil }
func (f *fakeIM) SIM(key media.SegmentKey) (string, string, bool) {
	return "h", "s", key.Video == "bbb"
}
func (f *fakeIM) Blacklisted(id string) bool { return f.blacklisted[id] }

func TestGetSIMAndBlacklistFiltering(t *testing.T) {
	im := &fakeIM{blacklisted: map[string]bool{}}
	e := newEnv(t, func(c *Config) { c.IM = im })
	key := e.keys.Issue("customer.com", nil)

	cA := e.dial(t, e.newPeerHost(t, "66.24.0.1"))
	wA, err := cA.Join(testCtx, basicJoin(key))
	if err != nil {
		t.Fatal(err)
	}
	cB := e.dial(t, e.newPeerHost(t, "66.24.0.2"))
	if _, err := cB.Join(testCtx, basicJoin(key)); err != nil {
		t.Fatal(err)
	}

	sim, err := cA.GetSIM(testCtx, GetSIM{Key: media.SegmentKey{Video: "bbb", Rendition: "720p", Index: 0}})
	if err != nil || !sim.Found || sim.Hash != "h" {
		t.Fatalf("GetSIM: %+v %v", sim, err)
	}
	sim2, err := cA.GetSIM(testCtx, GetSIM{Key: media.SegmentKey{Video: "other", Rendition: "720p", Index: 0}})
	if err != nil || sim2.Found {
		t.Fatalf("unknown SIM should report not found: %+v %v", sim2, err)
	}

	// Blacklist A; B should no longer be offered A.
	im.blacklisted[wA.PeerID] = true
	peers, err := cB.GetPeers(testCtx, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(peers) != 0 {
		t.Fatalf("blacklisted peer still matched: %+v", peers)
	}
}

// windowIM is a fakeIM that also signs windows: every hash "h", the
// count it was asked for echoed in the signature.
type windowIM struct{ fakeIM }

func (f *windowIM) SIMWindow(key media.SegmentKey, count int) ([]string, string, bool) {
	if key.Video != "bbb" {
		return nil, "", false
	}
	hashes := make([]string, count)
	for i := range hashes {
		hashes[i] = "h"
	}
	return hashes, "w" + strconv.Itoa(count), true
}

// TestGetSIMWindow: a Count turns the answer into a window only when the
// integrity service signs windows; with no Count, or a service that
// signs none, the reply is the single SIM it always was.
func TestGetSIMWindow(t *testing.T) {
	bbb := media.SegmentKey{Video: "bbb", Rendition: "720p", Index: 3}
	for _, tc := range []struct {
		name   string
		im     IMService
		req    GetSIM
		found  bool
		hash   string
		sig    string
		window int
	}{
		{"windowed service, count", &windowIM{}, GetSIM{Key: bbb, Count: 4}, true, "", "w4", 4},
		{"windowed service, no count", &windowIM{}, GetSIM{Key: bbb}, true, "h", "s", 0},
		{"windowed service, unknown key", &windowIM{}, GetSIM{Key: media.SegmentKey{Video: "other"}, Count: 4}, false, "", "", 0},
		{"plain service, count", &fakeIM{}, GetSIM{Key: bbb, Count: 4}, true, "h", "s", 0},
		{"no service, count", nil, GetSIM{Key: bbb, Count: 4}, false, "", "", 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := newEnv(t, func(c *Config) { c.IM = tc.im })
			c := e.dial(t, e.newPeerHost(t, "66.24.0.1"))
			if _, err := c.Join(testCtx, basicJoin(e.keys.Issue("customer.com", nil))); err != nil {
				t.Fatal(err)
			}
			sim, err := c.GetSIM(testCtx, tc.req)
			if err != nil {
				t.Fatal(err)
			}
			if sim.Key != tc.req.Key || sim.Found != tc.found || sim.Hash != tc.hash || sim.Sig != tc.sig || len(sim.Window) != tc.window {
				t.Fatalf("reply %+v, want found=%v hash=%q sig=%q and %d window entries for the asked key", sim, tc.found, tc.hash, tc.sig, tc.window)
			}
		})
	}
}

func decodeJSON(raw []byte, out any) error {
	return jsonUnmarshal(raw, out)
}

func waitFor(t *testing.T, timeout time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("condition not met before timeout")
}
