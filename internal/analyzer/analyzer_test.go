package analyzer

import (
	"context"
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
