package pdnclient

import (
	"context"
	"net/netip"
	"testing"
	"time"

	"github.com/stealthy-peers/pdnsec/internal/defense"
	"github.com/stealthy-peers/pdnsec/internal/provider"
	"github.com/stealthy-peers/pdnsec/internal/signal"
)

// joinedPeers admits two peers to one swarm without running playback:
// each has a signaling session and a run context, so connect works in
// both roles as it does mid-session. With turn set, both route their
// P2P transport through a relay; pol, when not nil, replaces the Peer5
// policy.
func joinedPeers(t *testing.T, turn bool, pol *signal.Policy) (a, b *Peer) {
	t.Helper()
	tb := newTestbedWithPolicy(t, provider.Peer5(), smallVideo("bbb", 4), pol)
	var relayAddr netip.AddrPort
	if turn {
		relayAddr = netip.MustParseAddrPort("50.50.50.50:3479")
		relay := defense.NewTURNRelay()
		if err := relay.Serve(tb.net.MustHost(relayAddr.Addr()), relayAddr.Port()); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { relay.Close() })
	}
	ctx, cancel := context.WithCancel(context.Background())
	mk := func() *Peer {
		cfg := tb.peerConfig(t)
		cfg.TURNAddr = relayAddr
		p, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		p.runCtx = ctx
		if err := p.join(ctx); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(p.teardown)
		return p
	}
	t.Cleanup(cancel)
	return mk(), mk()
}

// overTransports runs a connect-path case once over ICE and once over
// TURN: the two differ in what the offer carries and where the raw
// connection comes from, not in how an attempt is registered or settled.
func overTransports(t *testing.T, pol *signal.Policy, run func(t *testing.T, a, b *Peer)) {
	for _, tr := range []struct {
		name string
		turn bool
	}{{"ice", false}, {"turn", true}} {
		t.Run(tr.name, func(t *testing.T) {
			a, b := joinedPeers(t, tr.turn, pol)
			run(t, a, b)
		})
	}
}

// connectReturns runs from's initiating connect to to and fails the test
// unless it returns well inside a second (connectTimeout is five).
func connectReturns(t *testing.T, from, to *Peer, meanwhile func()) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		from.connect(context.Background(), to.ID(), signal.ConnectOffer{Fingerprint: to.Fingerprint()}, true, "")
	}()
	if meanwhile != nil {
		meanwhile()
	}
	select {
	case <-done:
	case <-time.After(time.Second):
		t.Fatal("connect is waiting out connectTimeout for an answer that cannot come")
	}
}

// awaitAttempt waits until p has a connection attempt in flight.
func awaitAttempt(t *testing.T, p *Peer) {
	t.Helper()
	waitFor(t, 2*time.Second, func() bool {
		p.mu.Lock()
		defer p.mu.Unlock()
		return len(p.attempts) > 0
	})
}

// unadmit puts p back where join leaves it between the welcome and
// publishing the session — no client to answer through — except that
// p.ID() keeps working for the test; the returned func finishes that
// join.
func unadmit(p *Peer) (readmit func()) {
	p.mu.Lock()
	sess := p.sess
	p.sess = &session{peerID: sess.peerID}
	p.admitted = make(chan struct{})
	p.mu.Unlock()
	return func() {
		p.mu.Lock()
		p.sess = sess
		p.mu.Unlock()
		close(p.admitted)
	}
}

// wantOneNeighbor allows the far side of a connection a moment to
// register it: the two ends of a handshake do not finish together.
func wantOneNeighbor(t *testing.T, p, other *Peer) {
	t.Helper()
	for deadline := time.Now().Add(time.Second); p.NeighborCount() == 0 && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	if ids := p.NeighborIDs(); len(ids) != 1 || ids[0] != other.ID() || p.NeighborCount() != 1 {
		t.Fatalf("peer %s: neighbors ever %v, now %d; want exactly %s", p.ID(), ids, p.NeighborCount(), other.ID())
	}
}

// TestGlareOfferToConnectedResponder: A's offer to B is in flight when
// the connection B initiated comes up. B, already connected, drops the
// offer unanswered; A's own registration of that connection is what
// must release A's initiator.
func TestGlareOfferToConnectedResponder(t *testing.T) {
	overTransports(t, nil, func(t *testing.T, a, b *Peer) {
		// B's side of the B→A connection registers first.
		b.addNeighbor(a.ID(), &breakableConn{broken: make(chan struct{})})
		connectReturns(t, a, b, func() {
			// Once A's attempt is in flight, A's responder side finishes.
			awaitAttempt(t, a)
			a.addNeighbor(b.ID(), &breakableConn{broken: make(chan struct{})})
		})
		wantOneNeighbor(t, a, b)
		wantOneNeighbor(t, b, a)
	})
}

// TestGlareNeighborLandsBeforeAnswerWait: the matcher named B, and A's
// responder side registered B before A's connect began. Nothing is left
// to end the attempt, so it must not begin — B would drop the offer
// unanswered.
func TestGlareNeighborLandsBeforeAnswerWait(t *testing.T) {
	overTransports(t, nil, func(t *testing.T, a, b *Peer) {
		a.addNeighbor(b.ID(), &breakableConn{broken: make(chan struct{})})
		b.addNeighbor(a.ID(), &breakableConn{broken: make(chan struct{})})
		connectReturns(t, a, b, nil)
		wantOneNeighbor(t, a, b)
		wantOneNeighbor(t, b, a)
		a.mu.Lock()
		defer a.mu.Unlock()
		if len(a.attempts) != 0 {
			t.Fatalf("connect left attempts behind: %v", a.attempts)
		}
	})
}

// TestOfferBeforeAdmissionIsAnswered: the matcher advertises a peer as
// soon as it welcomes it, so an offer can reach B while B's join is
// still publishing the session. B must answer once it has, not drop the
// offer and leave A to wait out connectTimeout.
func TestOfferBeforeAdmissionIsAnswered(t *testing.T) {
	overTransports(t, nil, func(t *testing.T, a, b *Peer) {
		readmit := unadmit(b)
		connectReturns(t, a, b, func() {
			time.Sleep(20 * time.Millisecond) // the offer is with B by now
			readmit()
		})
		wantOneNeighbor(t, a, b)
		wantOneNeighbor(t, b, a)
	})
}

// TestAttemptKeepsItsSessionAcrossRejoin: a rejoin publishes a new
// session — new peer ID, new voucher — while a connection attempt is
// waiting for its answer. The attempt began under the old session, the
// far side was matched with the old session's ID, and the handshake must
// present the old session's credentials: read afresh, a voucher for one
// ID would be presented with the other (or, here, no valid one at all)
// and the far side would reject the handshake.
func TestAttemptKeepsItsSessionAcrossRejoin(t *testing.T) {
	pol := signal.DefaultPolicy()
	pol.SecureTransport = true
	overTransports(t, &pol, func(t *testing.T, a, b *Peer) {
		began := a.session()
		readmit := unadmit(b) // holds B's answer back
		connectReturns(t, a, b, func() {
			awaitAttempt(t, a)
			admit(a, began.sig, signal.Welcome{PeerID: "rejoined", Voucher: "00", Policy: pol})
			a.mu.Lock()
			for att := range a.attempts {
				cfg := a.secureConfig(att.sess, "")
				if cfg.PeerID != began.peerID || cfg.Voucher != began.voucher || cfg.AuthorityKey != began.policy.TransportPubKey {
					t.Errorf("attempt would present (%q, %q, %q); it began as (%q, %q, %q)",
						cfg.PeerID, cfg.Voucher, cfg.AuthorityKey, began.peerID, began.voucher, began.policy.TransportPubKey)
				}
			}
			a.mu.Unlock()
			readmit()
		})
		// B knows A by the ID it was matched under.
		a.mu.Lock()
		a.sess = began
		a.mu.Unlock()
		wantOneNeighbor(t, a, b)
		wantOneNeighbor(t, b, a)
	})
}
