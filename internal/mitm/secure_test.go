package mitm_test

// MITM-vs-secure-transport regressions: the on-path attacker who could
// rewrite signaling and substitute segment bytes against the deployed
// profiles (the paper's §IV results) gets hard failures — never silent
// acceptance, never a panic — from the authenticated transport, and a
// pinned SDK refuses the downgrade that would re-open the old surface.

import (
	"context"
	"net"
	"net/netip"
	"testing"
	"time"

	"github.com/stealthy-peers/pdnsec/internal/analyzer"
	"github.com/stealthy-peers/pdnsec/internal/attack"
	"github.com/stealthy-peers/pdnsec/internal/dtls"
	"github.com/stealthy-peers/pdnsec/internal/media"
	"github.com/stealthy-peers/pdnsec/internal/mitm"
	"github.com/stealthy-peers/pdnsec/internal/pdnclient"
	"github.com/stealthy-peers/pdnsec/internal/provider"
	"github.com/stealthy-peers/pdnsec/internal/secure"
)

// securePair builds two vouched identities in one swarm, as the
// matcher would after two successful joins.
func securePair(t *testing.T) (cfgA, cfgB secure.ChannelConfig) {
	t.Helper()
	ta, err := secure.NewTransportAuthority()
	if err != nil {
		t.Fatal(err)
	}
	idA, err := secure.NewIdentity()
	if err != nil {
		t.Fatal(err)
	}
	idB, err := secure.NewIdentity()
	if err != nil {
		t.Fatal(err)
	}
	const swarm = "bbb/360p"
	vouchA, err := ta.Vouch("p1", swarm, idA.PublicKeyHex())
	if err != nil {
		t.Fatal(err)
	}
	vouchB, err := ta.Vouch("p2", swarm, idB.PublicKeyHex())
	if err != nil {
		t.Fatal(err)
	}
	cfgA = secure.ChannelConfig{
		Identity: idA, PeerID: "p1", SwarmID: swarm,
		Voucher: vouchA, AuthorityKey: ta.PublicKeyHex(),
		ExpectedPeerKey: idB.PublicKeyHex(),
	}
	cfgB = secure.ChannelConfig{
		Identity: idB, PeerID: "p2", SwarmID: swarm,
		Voucher: vouchB, AuthorityKey: ta.PublicKeyHex(),
	}
	return cfgA, cfgB
}

// TestTamperedHandshakeFails: an on-path attacker flipping bytes in the
// handshake flight makes both sides hard-fail on either transport —
// tampering can deny the channel but never yield an established one.
// The rejecting side closes the conn, so the peer still blocked on the
// reply it will never get unblocks instead of wedging.
func TestTamperedHandshakeFails(t *testing.T) {
	cfgA, cfgB := securePair(t)
	idA, err := dtls.NewIdentity()
	if err != nil {
		t.Fatal(err)
	}
	idB, err := dtls.NewIdentity()
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name           string
		client, server func(net.Conn) error
	}{
		{"secure",
			func(c net.Conn) error { _, err := secure.Client(c, cfgA); return err },
			func(c net.Conn) error { _, err := secure.Server(c, cfgB); return err }},
		{"dtls",
			func(c net.Conn) error { _, err := dtls.Client(c, dtls.Config{Identity: idA}); return err },
			func(c net.Conn) error { _, err := dtls.Server(c, dtls.Config{Identity: idB}); return err }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rawA, rawB := net.Pipe()
			defer rawA.Close()
			defer rawB.Close()
			tampered := mitm.NewTamperConn(rawB, nil)
			tampered.Arm(true)

			errc := make(chan error, 1)
			go func() { errc <- tc.client(rawA) }()
			if tc.server(tampered) == nil {
				t.Fatal("server accepted a tampered handshake")
			}
			select {
			case errA := <-errc:
				if errA == nil {
					t.Fatal("client completed a handshake the server rejected")
				}
			case <-time.After(10 * time.Second):
				t.Fatal("client did not unblock after the server rejected the handshake")
			}
			if tampered.Tampered() == 0 {
				t.Fatal("tamper hook never fired; the test exercised nothing")
			}
		})
	}
}

// TestTamperedRecordsFailClosed: with a clean handshake, flipping bytes
// in the AEAD record stream makes Recv return an error — substituted
// segment bytes cannot pass the channel, and corrupt frames never
// panic the reader.
func TestTamperedRecordsFailClosed(t *testing.T) {
	cfgA, cfgB := securePair(t)
	rawA, rawB := net.Pipe()
	defer rawA.Close()
	defer rawB.Close()
	tampered := mitm.NewTamperConn(rawB, nil)

	type sres struct {
		c   *secure.Conn
		err error
	}
	done := make(chan sres, 1)
	go func() {
		c, err := secure.Client(rawA, cfgA)
		done <- sres{c, err}
	}()
	b, err := secure.Server(tampered, cfgB)
	if err != nil {
		t.Fatalf("clean handshake failed: %v", err)
	}
	a := <-done
	if a.err != nil {
		t.Fatalf("clean handshake failed: %v", a.err)
	}

	// Attack only the established record stream.
	tampered.Arm(true)
	go a.c.Send([]byte("segment bytes the attacker rewrites in flight"))
	if payload, err := b.Recv(); err == nil {
		t.Fatalf("Recv accepted a tampered record: %q", payload)
	}
	if tampered.Tampered() == 0 {
		t.Fatal("tamper hook never fired; the test exercised nothing")
	}
}

// TestDowngradeStripped is the satellite's before/after: a MITM proxy
// strips the secure-transport policy from the welcome. The pinned SDK
// (what the secure profile ships) hard-fails the join; a deployed,
// unpinned SDK accepts the downgrade and keeps playing — which is why
// pinning is part of the profile, not an optional extra.
func TestDowngradeStripped(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 90*time.Second)
	defer cancel()
	tb, err := analyzer.NewTestbed(ctx, analyzer.TestbedConfig{
		Profile: provider.Secure(),
		Video:   analyzer.SmallVideo("bbb", 4, 8<<10),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer tb.Close()

	proxyHost, err := tb.NewViewerHost("US")
	if err != nil {
		t.Fatal(err)
	}
	proxy := mitm.NewSignalProxy(proxyHost, tb.Dep.SignalAddr, mitm.StripSecure())
	if err := proxy.Serve(ctx, 8444); err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()
	proxyAddr := netip.AddrPortFrom(proxyHost.VisibleAddr(), 8444)

	viaProxy := func(seed int64, pinned bool) (pdnclient.Stats, error) {
		host, err := tb.NewViewerHost("US")
		if err != nil {
			t.Fatal(err)
		}
		cfg := tb.ViewerConfig(host, seed)
		cfg.SignalAddr = proxyAddr
		cfg.SignalAddrs = nil
		cfg.MaxSegments = 4
		cfg.RequireSecureTransport = pinned
		return tb.RunViewer(ctx, cfg)
	}

	if _, err := viaProxy(1, true); err == nil {
		t.Error("pinned SDK accepted a welcome the MITM stripped the secure transport from")
	}
	st, err := viaProxy(2, false)
	if err != nil {
		t.Errorf("unpinned SDK failed under the downgrade (want silent acceptance, the deployed behavior): %v", err)
	}
	if st.SegmentsPlayed != 4 {
		t.Errorf("unpinned SDK played %d/4 segments under the downgrade", st.SegmentsPlayed)
	}
}

// TestSubstitutionBeforeAfter replays the §IV-C segment substitution
// (fake CDN + malicious peer) against one deployed profile and the
// secure profile: the deployed viewer plays attacker bytes, the secure
// viewer plays and caches none.
func TestSubstitutionBeforeAfter(t *testing.T) {
	if testing.Short() {
		t.Skip("two full pollution runs are not a -short test")
	}
	run := func(t *testing.T, prof provider.Profile) (polluted int, pollutedCached int) {
		ctx, cancel := context.WithTimeout(context.Background(), 90*time.Second)
		defer cancel()
		video := analyzer.SmallVideo("bbb", 6, 8<<10)
		tb, err := analyzer.NewTestbed(ctx, analyzer.TestbedConfig{Profile: prof, Video: video})
		if err != nil {
			t.Fatal(err)
		}
		defer tb.Close()

		fakeHost, err := tb.Net.NewHost(analyzer.FakeCDNIP())
		if err != nil {
			t.Fatal(err)
		}
		malHost, err := tb.NewViewerHost("US")
		if err != nil {
			t.Fatal(err)
		}
		mal := tb.ViewerConfig(malHost, 666)
		mal.MaxSegments = 6
		mal.InsecureNoVerify = true
		atk, err := attack.LaunchPollution(ctx, mal, fakeHost, mitm.SameSizePollution([]int{3, 4}))
		if err != nil {
			t.Fatal(err)
		}
		defer atk.Close()

		victimHost, err := tb.NewViewerHost("US")
		if err != nil {
			t.Fatal(err)
		}
		cfg := tb.ViewerConfig(victimHost, 99)
		cfg.MaxSegments = 6
		cfg.OnSegment = func(key media.SegmentKey, data []byte, source string) {
			if !video.Verify(key.Rendition, key.Index, data) {
				polluted++
			}
		}
		victim, err := pdnclient.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := victim.Run(ctx); err != nil {
			t.Fatalf("victim run: %v", err)
		}
		for _, idx := range victim.CachedIndices() {
			if data, ok := victim.CachedSegment(idx); ok && !video.Verify("360p", idx, data) {
				pollutedCached++
			}
		}
		return polluted, pollutedCached
	}

	t.Run("deployed", func(t *testing.T) {
		polluted, _ := run(t, provider.Peer5())
		if polluted == 0 {
			t.Error("deployed profile blocked the substitution; the before/after lost its before")
		}
	})
	t.Run("secure", func(t *testing.T) {
		polluted, cached := run(t, provider.Secure())
		if polluted != 0 {
			t.Errorf("secure viewer played %d substituted segments, want 0", polluted)
		}
		if cached != 0 {
			t.Errorf("secure viewer cached %d substituted segments, want 0", cached)
		}
	})
}
