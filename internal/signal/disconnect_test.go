package signal

import (
	"errors"
	"io"
	"net"
	"testing"
	"time"

	"github.com/stealthy-peers/pdnsec/internal/wire"
)

// TestPeerDisconnect pins what the server does when a peer drops in the
// middle of the matchmaking/relay flow: the session is unregistered
// (mid-match: it stops being offered as a candidate) and relays aimed
// at it come back as not_found, which the client surfaces through
// OnPeerGone so connect attempts abort instead of timing out.
func TestPeerDisconnect(t *testing.T) {
	cases := []struct {
		name  string
		check func(t *testing.T, cA *Client, goneID string, gone <-chan string)
	}{
		{
			name: "mid-match: departed peer leaves the candidate pool",
			check: func(t *testing.T, cA *Client, goneID string, gone <-chan string) {
				waitFor(t, 2*time.Second, func() bool {
					peers, err := cA.GetPeers(testCtx, 10)
					return err == nil && len(peers) == 0
				})
			},
		},
		{
			name: "mid-relay: relay to departed peer fires OnPeerGone",
			check: func(t *testing.T, cA *Client, goneID string, gone <-chan string) {
				// Ensure the server has processed the disconnect before
				// relaying, so not_found is deterministic.
				waitFor(t, 2*time.Second, func() bool {
					peers, err := cA.GetPeers(testCtx, 10)
					return err == nil && len(peers) == 0
				})
				if err := cA.Relay(goneID, RelayOffer, ConnectOffer{Fingerprint: "fpA"}); err != nil {
					t.Fatal(err)
				}
				select {
				case id := <-gone:
					if id != goneID {
						t.Fatalf("OnPeerGone(%q), want %q", id, goneID)
					}
				case <-time.After(2 * time.Second):
					t.Fatal("OnPeerGone never fired for relay to departed peer")
				}
				// The unsolicited error must not poison request/response
				// pairing: a normal round trip still works.
				if _, err := cA.GetPeers(testCtx, 10); err != nil {
					t.Fatalf("round trip after unsolicited error: %v", err)
				}
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			e := newEnv(t, nil)
			key := e.keys.Issue("customer.com", nil)

			cA := e.dial(t, e.newPeerHost(t, "66.24.0.1"))
			if _, err := cA.Join(testCtx, basicJoin(key)); err != nil {
				t.Fatal(err)
			}
			gone := make(chan string, 1)
			cA.OnPeerGone(func(id string) {
				select {
				case gone <- id:
				default:
				}
			})

			cB := e.dial(t, e.newPeerHost(t, "66.24.0.2"))
			wB, err := cB.Join(testCtx, basicJoin(key))
			if err != nil {
				t.Fatal(err)
			}
			// B is matched to A while alive, then drops.
			peers, err := cA.GetPeers(testCtx, 10)
			if err != nil {
				t.Fatal(err)
			}
			if len(peers) != 1 || peers[0].ID != wB.PeerID {
				t.Fatalf("want B as the sole candidate, got %+v", peers)
			}
			cB.Close()

			tc.check(t, cA, wB.PeerID, gone)
		})
	}
}

// holdUntilServed is the client half of a pipe whose Write does not
// return until the client's read loop has seen the server hang up. It
// puts a round trip at its wait with the reply already queued *and* the
// connection already closed — the state a reply-then-close server
// produces whenever it outruns the caller.
type holdUntilServed struct {
	net.Conn
	served <-chan struct{}
}

func (c *holdUntilServed) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	<-c.served
	return n, err
}

// TestReplyThenCloseDeliversTheReply: a server that answers a join and
// hangs up — every redirect, every auth rejection — must be heard as its
// answer, not as the io.EOF behind it. With both ready the wait used to
// pick at random, so a redirected federation.Join failed "bootstrap
// failed: EOF" about once in 25 000.
func TestReplyThenCloseDeliversTheReply(t *testing.T) {
	for _, tc := range []struct {
		name    string
		typ     string
		payload any
		check   func(err error) bool
	}{
		{"redirect", MsgRedirect, Redirect{Owner: "s1", Addr: "44.1.1.2:443"}, func(err error) bool {
			var rd *RedirectError
			return errors.As(err, &rd) && rd.Redirect.Owner == "s1"
		}},
		{"auth_error", MsgError, ErrorInfo{Code: CodeAuthFailed, Message: "no valid credential presented"}, func(err error) bool {
			var se *ServerError
			return errors.As(err, &se) && se.Info.Code == CodeAuthFailed
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// Each round the unfixed wait returned EOF with probability 1/2.
			for round := 0; round < 64; round++ {
				clientEnd, serverEnd := net.Pipe()
				go func() {
					codec := wire.NewCodec(serverEnd)
					defer codec.Close()
					if _, err := codec.Read(); err == nil {
						codec.Send(tc.typ, tc.payload)
					}
				}()
				conn := &holdUntilServed{Conn: clientEnd}
				c := newClient(conn)
				conn.served = c.Done()
				_, err := c.Join(testCtx, JoinRequest{Video: "v", Rendition: "360p"})
				c.Close()
				if !tc.check(err) {
					t.Fatalf("round %d: Join error = %v, want the server's %s", round, err, tc.typ)
				}
			}
		})
	}
}

// TestJoinReadBounded: a join frame whose length prefix announces bytes
// that never come (one corrupted length byte on the uplink) costs the
// server at most joinReadTimeout, then the connection; it does not hold
// the connection until the client gives up.
func TestJoinReadBounded(t *testing.T) {
	t.Parallel()
	e := newEnv(t, nil)
	conn, err := e.newPeerHost(t, "66.24.0.1").Dial(testCtx, e.addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	const announced = 3192
	if _, err := conn.Write([]byte{0, 0, announced >> 8, announced & 0xff}); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	conn.SetReadDeadline(start.Add(joinReadTimeout + 5*time.Second))
	_, err = conn.Read(make([]byte, 1))
	if elapsed := time.Since(start); !errors.Is(err, io.EOF) || elapsed > joinReadTimeout+time.Second {
		t.Fatalf("server answered a header-only join with %v after %v, want EOF within %v", err, elapsed, joinReadTimeout)
	}
}

// TestFrameBodyBounded: mid-session, a frame whose header announces a
// body that never comes (a corrupted get_peers length) costs the server
// wire.BodyTimeout, then the session; the client's next round trip sees
// the close instead of waiting on a reply that cannot be sent.
func TestFrameBodyBounded(t *testing.T) {
	e := newEnv(t, nil)
	conn, err := e.newPeerHost(t, "66.24.0.1").Dial(testCtx, e.addr)
	if err != nil {
		t.Fatal(err)
	}
	codec := wire.NewCodec(conn)
	defer codec.Close()
	if err := codec.Send(MsgJoin, basicJoin(e.keys.Issue("customer.com", nil))); err != nil {
		t.Fatal(err)
	}
	if env, err := codec.Read(); err != nil || env.Type != MsgWelcome {
		t.Fatalf("join: %+v, %v", env, err)
	}
	const announced = 3192
	if _, err := conn.Write([]byte{0, 0, announced >> 8, announced & 0xff}); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	conn.SetReadDeadline(start.Add(wire.BodyTimeout + 5*time.Second))
	_, err = conn.Read(make([]byte, 1))
	if elapsed := time.Since(start); !errors.Is(err, io.EOF) || elapsed > wire.BodyTimeout+time.Second {
		t.Fatalf("server answered a header-only frame with %v after %v, want EOF within %v", err, elapsed, wire.BodyTimeout)
	}
	waitFor(t, 2*time.Second, func() bool { return e.server.PeerCount() == 0 })
}
