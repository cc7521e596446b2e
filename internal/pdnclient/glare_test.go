package pdnclient

import (
	"context"
	"testing"
	"time"

	"github.com/stealthy-peers/pdnsec/internal/provider"
	"github.com/stealthy-peers/pdnsec/internal/signal"
)

// joinedPeers admits two peers to one swarm without running playback:
// each has a signaling session and a run context, so connectTo and
// answerOffer work as they do mid-session.
func joinedPeers(t *testing.T) (a, b *Peer) {
	t.Helper()
	tb := newTestbed(t, provider.Peer5(), smallVideo("bbb", 4))
	ctx, cancel := context.WithCancel(context.Background())
	mk := func() *Peer {
		p, err := New(tb.peerConfig(t))
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

// connectReturns runs from.connectTo(to) and fails the test unless it
// returns well inside a second (connectTimeout is five).
func connectReturns(t *testing.T, from, to *Peer, meanwhile func()) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		from.connectTo(context.Background(), signal.PeerInfo{ID: to.ID(), Fingerprint: to.Fingerprint()})
	}()
	if meanwhile != nil {
		meanwhile()
	}
	select {
	case <-done:
	case <-time.After(time.Second):
		t.Fatal("connectTo is waiting out connectTimeout for an answer that cannot come")
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
	a, b := joinedPeers(t)
	// B's side of the B→A connection registers first.
	b.addNeighbor(a.ID(), &breakableConn{broken: make(chan struct{})})
	connectReturns(t, a, b, func() {
		// Once A's attempt is in flight, A's responder side finishes.
		for deadline := time.Now().Add(2 * time.Second); ; {
			a.mu.Lock()
			inflight := len(a.attempts) > 0
			a.mu.Unlock()
			if inflight {
				break
			}
			if time.Now().After(deadline) {
				t.Fatal("connectTo never registered its attempt")
			}
			time.Sleep(time.Millisecond)
		}
		a.addNeighbor(b.ID(), &breakableConn{broken: make(chan struct{})})
	})
	wantOneNeighbor(t, a, b)
	wantOneNeighbor(t, b, a)
}

// TestGlareNeighborLandsBeforeAnswerWait: the matcher named B, and A's
// responder side registered B before A's connectTo began. Nothing is
// left to end the attempt, so it must not begin — B would drop the
// offer unanswered.
func TestGlareNeighborLandsBeforeAnswerWait(t *testing.T) {
	a, b := joinedPeers(t)
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
}

// TestOfferBeforeAdmissionIsAnswered: the matcher advertises a peer as
// soon as it welcomes it, so an offer can reach B while B's join is
// still storing the welcome. B must answer once it has, not drop the
// offer and leave A to wait out connectTimeout.
func TestOfferBeforeAdmissionIsAnswered(t *testing.T) {
	a, b := joinedPeers(t)
	// Put B back where join leaves it between the welcome and storing it.
	b.mu.Lock()
	sig := b.sig
	b.sig = nil
	b.admitted = make(chan struct{})
	b.mu.Unlock()
	connectReturns(t, a, b, func() {
		time.Sleep(20 * time.Millisecond) // the offer is with B by now
		b.mu.Lock()
		b.sig = sig
		b.mu.Unlock()
		close(b.admitted)
	})
	wantOneNeighbor(t, a, b)
	wantOneNeighbor(t, b, a)
}
