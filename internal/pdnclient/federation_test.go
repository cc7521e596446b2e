package pdnclient

import (
	"context"
	"fmt"
	"net/netip"
	"strings"
	"testing"
	"time"

	"github.com/stealthy-peers/pdnsec/internal/cdn"
	"github.com/stealthy-peers/pdnsec/internal/netsim"
	"github.com/stealthy-peers/pdnsec/internal/obs"
	"github.com/stealthy-peers/pdnsec/internal/provider"
)

// newFederatedTestbed deploys a multi-server signaling plane with a CDN
// and one video, mirroring newTestbed for the federated topology.
func newFederatedTestbed(t *testing.T, servers int) *testbed {
	t.Helper()
	video := smallVideo("bbb", 4)
	n := netsim.New(netsim.Config{})

	cdnHost := n.MustHost(netip.MustParseAddr("93.184.216.34"))
	cdnSrv := cdn.New()
	cdnSrv.Register(video)
	if err := cdnSrv.Serve(cdnHost, 80); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cdnSrv.Close() })

	sigHost := n.MustHost(netip.MustParseAddr("44.1.1.1"))
	extra := make([]*netsim.Host, servers-1)
	for i := range extra {
		extra[i] = n.MustHost(netip.AddrFrom4([4]byte{44, 1, 1, byte(i + 2)}))
	}
	dep, err := provider.Deploy(context.Background(), provider.Peer5(), sigHost,
		provider.Options{Seed: 42, Servers: servers, SignalHosts: extra})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { dep.Close() })

	tb := &testbed{
		net:     n,
		cdnSrv:  cdnSrv,
		cdnBase: "http://93.184.216.34:80",
		dep:     dep,
		video:   video,
	}
	tb.key = dep.IssueKey("customer.com")
	return tb
}

// TestReconnectReResolvesBootstrapList is the federation regression
// test for the client side: a viewer whose admitting server crashes
// must NOT retry the pinned address forever — the reconnect path runs
// the full bootstrap resolution again, so the peerstore backs off the
// dead server, a survivor answers, and the session resumes under the
// new owner's namespace.
func TestReconnectReResolvesBootstrapList(t *testing.T) {
	tb := newFederatedTestbed(t, 3)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	reg := obs.NewRegistry()
	cfg := tb.peerConfig(t)
	cfg.SignalAddrs = tb.dep.SignalAddrs
	cfg.Linger = 45 * time.Second
	cfg.Obs = reg
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := p.Run(ctx)
		done <- err
	}()
	t.Cleanup(func() {
		cancel()
		<-done
	})

	peerID := p.ID
	deadline := time.Now().Add(30 * time.Second)
	for peerID() == "" {
		if time.Now().After(deadline) {
			t.Fatal("viewer never joined the swarm")
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Kill the admitting server — the owner of the viewer's swarm.
	swarmID := tb.video.ID + "/360p"
	owner := tb.dep.Plane.Owner(swarmID)
	if !strings.HasPrefix(peerID(), owner+"p") {
		t.Fatalf("peer ID %q not in owner %s's namespace", peerID(), owner)
	}
	var idx int
	if _, err := fmt.Sscanf(owner, "s%d", &idx); err != nil {
		t.Fatalf("bad owner name %q", owner)
	}
	if err := tb.dep.Plane.Fail(idx); err != nil {
		t.Fatal(err)
	}
	newOwner := tb.dep.Plane.Owner(swarmID)
	if newOwner == owner {
		t.Fatalf("ring did not move the swarm off dead %s", owner)
	}

	// The reconnect loop must re-resolve through the peerstore and come
	// back under the new owner, bumping the reconnect counter.
	deadline = time.Now().Add(30 * time.Second)
	for !strings.HasPrefix(peerID(), newOwner+"p") {
		if time.Now().After(deadline) {
			t.Fatalf("viewer never rejoined under new owner %s; still %q", newOwner, peerID())
		}
		time.Sleep(5 * time.Millisecond)
	}
	// The counter bumps just after the rejoin installs the new session;
	// give it a beat rather than racing that window.
	reconnects := reg.Counter("pdn_signal_reconnects_total", "")
	deadline = time.Now().Add(5 * time.Second)
	for reconnects.Value() < 1 {
		if time.Now().After(deadline) {
			t.Errorf("pdn_signal_reconnects_total = %d, want >= 1", reconnects.Value())
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if tb.dep.PeerCount() != 1 {
		t.Errorf("plane-wide peer count = %d, want 1", tb.dep.PeerCount())
	}
}
