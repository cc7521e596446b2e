package pdnclient

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/netip"
	"sync"
	"testing"
	"time"

	"github.com/stealthy-peers/pdnsec/internal/defense"
	"github.com/stealthy-peers/pdnsec/internal/obs"
	"github.com/stealthy-peers/pdnsec/internal/provider"
	"github.com/stealthy-peers/pdnsec/internal/signal"
)

// joinedPeers admits two peers to one swarm without running playback:
// each has a signaling session and a run context, so connect works in
// both roles as it does mid-session, and its own tracer and registry.
// With turn set, both route their P2P transport through a relay; pol,
// when not nil, replaces the Peer5 policy.
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
		cfg.Tracer, cfg.Obs = obs.NewTracer(nil), obs.NewRegistry()
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

// initiate opens from's initiator attempt with to, as a match does; run
// carries it out, and does nothing when beginAttempt refused it.
func initiate(from, to *Peer) (run func()) {
	ctx, att := from.beginAttempt(context.Background(), to.ID(), true)
	return func() {
		if att != nil {
			from.connect(ctx, att, to.ID(), signal.ConnectOffer{Fingerprint: to.Fingerprint()}, "")
		}
	}
}

// connectReturns runs from's initiating connect to to and fails the test
// unless it returns well inside a second (connectTimeout is five). The
// attempt is registered before meanwhile runs.
func connectReturns(t *testing.T, from, to *Peer, meanwhile func()) {
	t.Helper()
	run := initiate(from, to)
	done := make(chan struct{})
	go func() {
		defer close(done)
		run()
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
// the connection B initiated comes up on both sides. B, connected,
// answers all the same, and the connection A's offer brings up replaces
// the one each side holds.
func TestGlareOfferToConnectedResponder(t *testing.T) {
	overTransports(t, nil, func(t *testing.T, a, b *Peer) {
		// B's side of the B→A connection registers first.
		b.addNeighbor(a.ID(), &breakableConn{broken: make(chan struct{})})
		connectReturns(t, a, b, func() {
			// With A's attempt in flight, A's responder side finishes.
			a.addNeighbor(b.ID(), &breakableConn{broken: make(chan struct{})})
		})
		wantOneNeighbor(t, a, b)
		wantOneNeighbor(t, b, a)
	})
}

// TestGlareNeighborLandsBeforeAnswerWait: the matcher named B, and A's
// responder side registered B before A's connect began. An initiator
// never begins beside a connection, so A offers nothing.
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
			admit(a, began.sig, signal.Welcome{PeerID: "rejoined", Voucher: "00", Policy: pol})
			a.mu.Lock()
			for _, att := range a.attempts {
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

// handshakeRoles lists the role of every transport handshake in p's
// trace.
func handshakeRoles(t *testing.T, p *Peer) []string {
	t.Helper()
	var buf bytes.Buffer
	if err := p.cfg.Tracer.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	var roles []string
	for sc := bufio.NewScanner(&buf); sc.Scan(); {
		var ev struct {
			Name string `json:"name"`
			Args struct {
				Role string `json:"role"`
			} `json:"args"`
		}
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("trace line %q: %v", sc.Text(), err)
		}
		if ev.Name == "dtls_handshake" || ev.Name == "secure_handshake" {
			roles = append(roles, ev.Args.Role)
		}
	}
	return roles
}

// TestReOfferToHalfOpenIsAnswered: B still holds a connection to A that
// A no longer does, and A offers again. B answers, and the new
// connection replaces the half-open one, which B closes without counting
// an eviction: A's connect returns well inside a second, not after
// connectTimeout.
func TestReOfferToHalfOpenIsAnswered(t *testing.T) {
	overTransports(t, nil, func(t *testing.T, a, b *Peer) {
		halfOpen := &breakableConn{broken: make(chan struct{})}
		b.addNeighbor(a.ID(), halfOpen)
		connectReturns(t, a, b, nil)
		wantOneNeighbor(t, a, b)
		select {
		case <-halfOpen.broken:
		case <-time.After(time.Second):
			t.Fatal("B kept the connection A no longer holds")
		}
		wantOneNeighbor(t, b, a)
		if n := b.metrics.neighborsEvicted.Value(); n != 0 {
			t.Errorf("replacing the half-open connection counted %d evictions", n)
		}
	})
}

// TestCrossedOffersYieldToLowerID: both peers offer, each while its own
// offer is in flight. The offer from the lower peer ID goes ahead and
// the other is ignored, so one connection comes up: each side runs one
// transport handshake, the lower ID as its client, and evicts nothing.
func TestCrossedOffersYieldToLowerID(t *testing.T) {
	overTransports(t, nil, func(t *testing.T, a, b *Peer) {
		lo, hi := a, b
		if hi.ID() < lo.ID() {
			lo, hi = hi, lo
		}
		// Both attempts are registered before either offer is relayed.
		runs := []func(){initiate(lo, hi), initiate(hi, lo)}
		var wg sync.WaitGroup
		for _, run := range runs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				run()
			}()
		}
		done := make(chan struct{})
		go func() {
			wg.Wait()
			close(done)
		}()
		select {
		case <-done:
		case <-time.After(time.Second):
			t.Fatal("a crossed connect is waiting out connectTimeout")
		}
		wantOneNeighbor(t, lo, hi)
		wantOneNeighbor(t, hi, lo)
		for p, want := range map[*Peer]string{lo: "client", hi: "server"} {
			if roles := handshakeRoles(t, p); len(roles) != 1 || roles[0] != want {
				t.Errorf("peer %s ran handshakes %v, want one as %s", p.ID(), roles, want)
			}
			if n := p.metrics.neighborsEvicted.Value(); n != 0 {
				t.Errorf("peer %s evicted %d neighbors", p.ID(), n)
			}
		}
	})
}

// TestBeginAttemptRules walks beginAttempt through every combination of
// what is in flight with the remote peer, whether it is a neighbor,
// which way the new attempt goes and how the two peer IDs order. An
// attempt that goes ahead replaces and cancels the one in flight; one
// that does not leaves it be. Either way at most one attempt is
// registered per peer. Between the two begins the peer rejoins under an
// ID that orders the other way, so a crossing must be judged by the ID
// the attempt in flight began under, the one the far side knows.
func TestBeginAttemptRules(t *testing.T) {
	const me, lower, higher = "m", "a", "z"
	type row struct {
		inFlight  string // "", "initiator" or "responder"
		connected bool
		initiate  bool // else an offer arrives
		remote    string
		starts    bool
	}
	var rows []row
	for _, inFlight := range []string{"", "initiator", "responder"} {
		for _, connected := range []bool{false, true} {
			for _, remote := range []string{lower, higher} {
				rows = append(rows,
					// An initiator starts beside nothing at all.
					row{inFlight, connected, true, remote, inFlight == "" && !connected},
					// An offer is answered unless it crosses ours from
					// the higher ID.
					row{inFlight, connected, false, remote, inFlight != "initiator" || remote == lower})
			}
		}
	}
	for _, r := range rows {
		name := fmt.Sprintf("inflight=%s/connected=%v/initiate=%v/remote=%s", r.inFlight, r.connected, r.initiate, r.remote)
		t.Run(name, func(t *testing.T) {
			p := &Peer{
				sess:      &session{peerID: me, sig: &signal.Client{}},
				runCtx:    context.Background(),
				attempts:  make(map[string]*attempt),
				neighbors: make(map[string]*neighbor),
			}
			var (
				prevCtx context.Context
				prev    *attempt
			)
			if r.inFlight != "" {
				prevCtx, prev = p.beginAttempt(context.Background(), r.remote, r.inFlight == "initiator")
				defer prev.cancel()
			}
			rejoined := "zz" // orders above higher
			if r.remote == lower {
				rejoined = "0" // orders below lower
			}
			p.sess = &session{peerID: rejoined, sig: p.sess.sig}
			if r.connected {
				p.neighbors[r.remote] = &neighbor{id: r.remote}
			}
			_, att := p.beginAttempt(context.Background(), r.remote, r.initiate)
			if att != nil {
				defer att.cancel()
			}
			if started := att != nil; started != r.starts {
				t.Fatalf("attempt started: %v, want %v", started, r.starts)
			}
			want := prev
			if r.starts {
				want = att
			}
			if len(p.attempts) > 1 || p.attempts[r.remote] != want {
				t.Errorf("registered %v, want only %p under %q", p.attempts, want, r.remote)
			}
			if prev != nil && (prevCtx.Err() != nil) != r.starts {
				t.Errorf("attempt in flight cancelled: %v, want %v", prevCtx.Err() != nil, r.starts)
			}
		})
	}
}
