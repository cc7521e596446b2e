package signal

import (
	"bytes"
	"context"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"github.com/stealthy-peers/pdnsec/internal/obs"
	"github.com/stealthy-peers/pdnsec/internal/wire"
)

// rawJoin joins over a raw codec and returns it with the peer ID the
// welcome assigned.
func rawJoin(t *testing.T, e *env, ip, key string) (*wire.Codec, string) {
	t.Helper()
	conn, err := e.newPeerHost(t, ip).Dial(testCtx, e.addr)
	if err != nil {
		t.Fatal(err)
	}
	codec := wire.NewCodec(conn)
	t.Cleanup(func() { codec.Close() })
	if err := codec.Send(MsgJoin, basicJoin(key)); err != nil {
		t.Fatal(err)
	}
	env, err := codec.Read()
	if err != nil || env.Type != MsgWelcome {
		t.Fatalf("join: %+v, %v", env, err)
	}
	var w Welcome
	if err := env.Decode(&w); err != nil {
		t.Fatal(err)
	}
	return codec, w.PeerID
}

// promValue reads one unlabelled series from the registry's exposition.
func promValue(t *testing.T, reg *obs.Registry, name string) string {
	t.Helper()
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(buf.String(), "\n") {
		if v, ok := strings.CutPrefix(line, name+" "); ok {
			return v
		}
	}
	t.Fatalf("%s not exposed", name)
	return ""
}

// TestNonReadingSessionStallsOnlyItself: a peer that stops reading
// after its welcome backs up its own delivery and nobody else's. With
// its inbound buffer full and 300 offers of ~4 KB queued behind it,
// another peer still joins and is matched at once, and the sender's
// own round trips are unaffected.
func TestNonReadingSessionStallsOnlyItself(t *testing.T) {
	reg := obs.NewRegistry()
	e := newEnv(t, func(c *Config) { c.Obs = reg })
	key := e.keys.Issue("customer.com", nil)
	// A reads its welcome and never reads again.
	_, mute := rawJoin(t, e, "66.24.0.1", key)

	cB := e.dial(t, e.newPeerHost(t, "66.24.0.2"))
	if _, err := cB.Join(testCtx, basicJoin(key)); err != nil {
		t.Fatal(err)
	}
	const offers = 300
	sdp := strings.Repeat("a=candidate ", 4096/12)
	for i := 0; i < offers; i++ {
		if err := cB.Relay(mute, RelayOffer, ConnectOffer{Fingerprint: sdp}); err != nil {
			t.Fatal(err)
		}
	}
	relays := reg.Counter("signal_relays_total", "")
	waitFor(t, 5*time.Second, func() bool { return relays.Value() == offers })

	cC := e.dial(t, e.newPeerHost(t, "66.24.0.3"))
	if _, err := cC.Join(testCtx, basicJoin(key)); err != nil {
		t.Fatal(err)
	}
	for name, c := range map[string]*Client{"C": cC, "B": cB} {
		ctx, cancel := context.WithTimeout(testCtx, time.Second)
		start := time.Now()
		peers, err := c.GetPeers(ctx, 10)
		cancel()
		if err != nil {
			t.Fatalf("%s: get_peers behind a non-reading session: %v after %v (%s queued)",
				name, err, time.Since(start), promValue(t, reg, "signal_shard_depth"))
		}
		if len(peers) != 2 {
			t.Fatalf("%s matched %d peers, want 2", name, len(peers))
		}
	}
}

// TestOutboundOverflowDisconnects: once a non-reading session's backlog
// reaches queueDepth it is disconnected, every relay aimed at it is
// accounted as delivered, dropped or answered not_found, the queue
// gauge returns to zero, and Close leaves no session writer behind.
func TestOutboundOverflowDisconnects(t *testing.T) {
	reg := obs.NewRegistry()
	e := newEnv(t, func(c *Config) { c.Obs = reg })
	key := e.keys.Issue("customer.com", nil)
	_, mute := rawJoin(t, e, "66.24.0.1", key)

	// B relays from a raw codec, so that were its sends to block behind
	// A, closing the codec at cleanup would free them.
	cB, _ := rawJoin(t, e, "66.24.0.2", key)
	var notFound atomic.Int64
	go func() {
		for {
			env, err := cB.Read()
			if err != nil {
				return
			}
			var info ErrorInfo
			if env.Type == MsgError && env.Decode(&info) == nil && info.Code == CodeNotFound && info.Message == "peer "+mute {
				notFound.Add(1)
			}
		}
	}()
	// B floods A until A is gone. The batch A's writer took before it
	// blocked is no longer queued, so twice the bound (and a margin for
	// A's inbox) must overflow; B stops there, so that the not_found
	// answers to its stragglers stay far below its own bound.
	var sent atomic.Int64
	sendDone := make(chan struct{})
	go func() {
		defer close(sendDone)
		for sent.Load() < 2*queueDepth+500 && e.server.PeerCount() == 2 {
			if cB.Send(MsgRelay, Relay{To: mute, Kind: RelayOffer, Payload: []byte(`{"fingerprint":"fp"}`)}) != nil {
				return
			}
			sent.Add(1)
		}
	}()
	waitFor(t, 10*time.Second, func() bool { return e.server.PeerCount() == 1 })
	select {
	case <-sendDone:
	case <-time.After(5 * time.Second):
		t.Fatal("B still sending after A was disconnected")
	}

	relays := reg.Counter("signal_relays_total", "")
	delivered := reg.Counter("signal_relays_delivered_total", "")
	drops := reg.Counter("signal_relay_drops_total", "")
	waitFor(t, 10*time.Second, func() bool {
		return relays.Value()+notFound.Load() == sent.Load() && delivered.Value()+drops.Value() == relays.Value()
	})
	t.Logf("B sent %d relays to A: %d delivered, %d dropped, %d answered not_found",
		sent.Load(), delivered.Value(), drops.Value(), notFound.Load())
	if drops.Value() == 0 {
		t.Fatalf("no relay counted as dropped (delivered %d of %d)", delivered.Value(), relays.Value())
	}
	if got := promValue(t, reg, "signal_shard_depth"); got != "0" {
		t.Fatalf("signal_shard_depth = %s after the overflowed session drained, want 0", got)
	}

	e.server.Close()
	buf := make([]byte, 1<<20)
	if stacks := string(buf[:runtime.Stack(buf, true)]); strings.Contains(stacks, "(*Server).writeLoop") {
		t.Fatalf("a session writer outlived Close:\n%s", stacks)
	}
}
