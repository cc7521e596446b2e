package federation

import (
	"context"
	"errors"
	"fmt"
	"net/netip"
	"strings"
	"testing"
	"time"

	"github.com/stealthy-peers/pdnsec/internal/netsim"
	"github.com/stealthy-peers/pdnsec/internal/obs"
	"github.com/stealthy-peers/pdnsec/internal/signal"
	"github.com/stealthy-peers/pdnsec/internal/wire"
)

var testCtx = context.Background()

// testPlane boots an n-server plane on its own simulated network and
// returns it with the shared registry and a host factory for clients.
func testPlane(t *testing.T, n int, seed int64) (*Plane, *obs.Registry, func() *netsim.Host) {
	t.Helper()
	reg := obs.NewRegistry()
	net := netsim.New(netsim.Config{Seed: seed})
	hosts := make([]*netsim.Host, n)
	for i := range hosts {
		hosts[i] = net.MustHost(netip.AddrFrom4([4]byte{44, 0, 0, byte(i + 1)}))
	}
	p := NewPlane(PlaneConfig{Servers: n, Base: signal.Config{Policy: signal.DefaultPolicy(), Seed: seed, Obs: reg}})
	if err := p.Serve(hosts, 443); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { p.Close() })
	next := byte(1)
	return p, reg, func() *netsim.Host {
		h := net.MustHost(netip.AddrFrom4([4]byte{66, 10, 0, next}))
		next++
		return h
	}
}

// swarmOwnedBy hunts for a video whose swarm lands on the wanted
// server — the ring is deterministic, so the scan always terminates at
// the same video.
func swarmOwnedBy(t *testing.T, p *Plane, server string) string {
	t.Helper()
	for i := 0; i < 64; i++ {
		v := fmt.Sprintf("vod-%d", i)
		if p.Owner(v+"/720p") == server {
			return v
		}
	}
	t.Fatalf("no swarm owned by %s in 64 candidates", server)
	return ""
}

func serverIndex(t *testing.T, name string) int {
	t.Helper()
	var i int
	if _, err := fmt.Sscanf(name, "s%d", &i); err != nil {
		t.Fatalf("bad server name %q", name)
	}
	return i
}

// TestPlaneRedirectPath pins the one routing mode: any join for a
// remote swarm is answered with the owner's address plus the full
// server list, and a federation.Join follows it to the owner.
func TestPlaneRedirectPath(t *testing.T) {
	p, reg, newHost := testPlane(t, 3, 7)
	video := swarmOwnedBy(t, p, "s1")

	// Raw client against the wrong server: the redirect surfaces as a
	// typed error carrying the owner and the bootstrap list. The join
	// asks for nothing special; a redirect is the only answer.
	cli, err := signal.Dial(testCtx, newHost(), p.Addr(0))
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	_, err = cli.Join(testCtx, signal.JoinRequest{Video: video, Rendition: "720p", Fingerprint: "fpA"})
	var rd *signal.RedirectError
	if !errors.As(err, &rd) {
		t.Fatalf("join via non-owner returned %v, want RedirectError", err)
	}
	if rd.Redirect.Owner != "s1" {
		t.Errorf("redirect owner = %q, want s1", rd.Redirect.Owner)
	}
	if rd.Redirect.Addr != p.Addr(1).String() {
		t.Errorf("redirect addr = %q, want %v", rd.Redirect.Addr, p.Addr(1))
	}
	if len(rd.Redirect.Servers) != 3 {
		t.Errorf("redirect advertised %d servers, want 3", len(rd.Redirect.Servers))
	}
	if got := reg.Counter("signal_redirects_total", "").Value(); got == 0 {
		t.Error("signal_redirects_total never incremented")
	}

	// The bootstrap path follows the same redirect and lands on the
	// owner; the peerstore learns the other two servers from it.
	store := NewPeerstore([]netip.AddrPort{p.Addr(0)}, time.Now)
	res, err := Join(testCtx, newHost(), store, signal.JoinRequest{Video: video, Rendition: "720p", Fingerprint: "fpB"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer res.Client.Close()
	if res.Server != p.Addr(1) {
		t.Errorf("bootstrap admitted by %v, want owner %v", res.Server, p.Addr(1))
	}
	if !strings.HasPrefix(res.Welcome.PeerID, "s1p") {
		t.Errorf("peer ID %q not in the owner's namespace", res.Welcome.PeerID)
	}
	if store.Len() != 3 {
		t.Errorf("peerstore knows %d servers after redirect, want 3", store.Len())
	}
}

// TestPlaneOwnerCrashRebalance pins crash recovery end to end: the
// owner dies, the ring hands its arcs to the survivors, and a stranded
// peer re-bootstrapping through its peerstore is admitted by the new
// owner — without ever pinning a server address.
func TestPlaneOwnerCrashRebalance(t *testing.T) {
	p, _, newHost := testPlane(t, 3, 7)
	video := swarmOwnedBy(t, p, "s0")

	store := NewPeerstore(p.Addrs(), time.Now)
	res, err := Join(testCtx, newHost(), store, signal.JoinRequest{Video: video, Rendition: "720p", Fingerprint: "fpX"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Server != p.Addr(0) {
		t.Fatalf("admitted by %v, want s0 %v", res.Server, p.Addr(0))
	}
	res.Client.Close()

	if err := p.Fail(0); err != nil {
		t.Fatal(err)
	}
	newOwner := p.Owner(video + "/720p")
	if newOwner == "s0" || newOwner == "" {
		t.Fatalf("ring did not rebalance: owner still %q", newOwner)
	}

	// Re-bootstrap: s0 fails fast and backs off, a survivor redirects
	// (or admits) under the new ownership.
	res2, err := Join(testCtx, newHost(), store, signal.JoinRequest{Video: video, Rendition: "720p", Fingerprint: "fpX"}, nil)
	if err != nil {
		t.Fatalf("re-bootstrap after owner crash: %v", err)
	}
	defer res2.Client.Close()
	if want := p.Addr(serverIndex(t, newOwner)); res2.Server != want {
		t.Errorf("re-admitted by %v, want new owner %s at %v", res2.Server, newOwner, want)
	}
	if !strings.HasPrefix(res2.Welcome.PeerID, newOwner+"p") {
		t.Errorf("recovered peer ID %q not in %s's namespace", res2.Welcome.PeerID, newOwner)
	}

	// The dead server is now the store's last resort, not its first.
	if cand := store.Candidates(); cand[len(cand)-1] != p.Addr(0) {
		t.Errorf("dead s0 should be the last candidate: %v", cand)
	}
}

// TestPlaneSingleServerKeepsSeedBehavior pins the N=1 special case:
// same code path, no redirects, and peer IDs keep the seed-era "pN"
// format so single-server deployments are byte-compatible.
func TestPlaneSingleServerKeepsSeedBehavior(t *testing.T) {
	p, reg, newHost := testPlane(t, 1, 7)
	store := NewPeerstore(p.Addrs(), time.Now)
	res, err := Join(testCtx, newHost(), store, signal.JoinRequest{Video: "v", Rendition: "r", Fingerprint: "fp"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer res.Client.Close()
	if strings.Contains(res.Welcome.PeerID, "s0") {
		t.Errorf("N=1 peer ID %q carries a server prefix", res.Welcome.PeerID)
	}
	// A raw join, outside federation.Join, is admitted in place too.
	cli, err := signal.Dial(testCtx, newHost(), p.Addr(0))
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	if _, err := cli.Join(testCtx, signal.JoinRequest{Video: "v", Rendition: "r", Fingerprint: "fp2"}); err != nil {
		t.Fatalf("raw join on an N=1 plane: %v", err)
	}
	if got := reg.Counter("signal_redirects_total", "").Value(); got != 0 {
		t.Errorf("N=1 plane issued %d redirects", got)
	}
	if p.Owner("v/r") != "s0" {
		t.Errorf("owner = %q, want s0", p.Owner("v/r"))
	}
	if p.PeerCount() != 2 {
		t.Errorf("PeerCount = %d, want 2", p.PeerCount())
	}
}

// TestFellowServerCannotStampClientAddr pins that a server files every
// session under the address it observed. Two joins dialed from a fellow
// server's own host, each naming a different client address in a
// "fwd_addr" field, are one host holding two identities to the owner:
// a federated server cannot spread identities across invented hosts
// and slip past Policy.MaxPeersPerHost.
func TestFellowServerCannotStampClientAddr(t *testing.T) {
	network := netsim.New(netsim.Config{Seed: 7})
	hosts := []*netsim.Host{
		network.MustHost(netip.AddrFrom4([4]byte{44, 0, 0, 1})),
		network.MustHost(netip.AddrFrom4([4]byte{44, 0, 0, 2})),
	}
	p := NewPlane(PlaneConfig{Servers: 2, Base: signal.Config{Policy: signal.DefaultPolicy(), Seed: 7}})
	if err := p.Serve(hosts, 443); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { p.Close() })
	video := swarmOwnedBy(t, p, "s1")

	for i, fwd := range []string{"66.24.0.1", "66.24.0.2"} {
		conn, err := hosts[0].Dial(testCtx, p.Addr(1))
		if err != nil {
			t.Fatal(err)
		}
		codec := wire.NewCodec(conn)
		t.Cleanup(func() { codec.Close() })
		join := map[string]any{"video": video, "rendition": "720p", "fingerprint": fmt.Sprintf("fp%d", i), "fwd_addr": fwd}
		if err := codec.Send(signal.MsgJoin, join); err != nil {
			t.Fatal(err)
		}
		env, err := codec.Read()
		if err != nil {
			t.Fatal(err)
		}
		if env.Type != signal.MsgWelcome {
			t.Fatalf("join %d answered %q, want welcome", i, env.Type)
		}
	}

	stats := p.Server(1).HostStats()
	if len(stats) != 1 || stats[0].Identities != 2 {
		t.Fatalf("owner's host ledger = %+v, want one host holding both identities", stats)
	}
}
