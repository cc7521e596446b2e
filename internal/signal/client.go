package signal

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/netip"
	"strings"
	"sync"

	"github.com/stealthy-peers/pdnsec/internal/netsim"
	"github.com/stealthy-peers/pdnsec/internal/obs"
	"github.com/stealthy-peers/pdnsec/internal/wire"
)

// ErrClosed is returned by client calls after the connection ends.
var ErrClosed = errors.New("signal: client closed")

// ServerError is an error message relayed from the PDN server.
type ServerError struct {
	Info ErrorInfo
}

// Error implements error.
func (e *ServerError) Error() string {
	return fmt.Sprintf("signal: server error %s: %s", e.Info.Code, e.Info.Message)
}

// RedirectError is returned by Join when a federated server does not
// own the requested swarm. The caller should re-dial the named owner
// (federation.Join does this, refreshing its peerstore from Servers
// along the way).
type RedirectError struct {
	Redirect Redirect
}

// Error implements error.
func (e *RedirectError) Error() string {
	return fmt.Sprintf("signal: swarm owned by %s at %s", e.Redirect.Owner, e.Redirect.Addr)
}

// Client is the SDK side of the signaling protocol. One goroutine owns
// the read loop; requests are serialized so responses pair with their
// requests; asynchronous relays are delivered to the relay handler.
type Client struct {
	codec *wire.Codec

	reqMu sync.Mutex // serializes request/response exchanges

	mu         sync.Mutex
	respCh     chan wire.Envelope
	relayFn    func(Relay)
	peerGoneFn func(string)
	closeErr   error
	done       chan struct{}

	// Relay and peer-gone callbacks run on a dedicated dispatcher
	// goroutine fed by this unbounded queue, never on the read loop.
	// A callback that re-enters the client (pdnclient's eviction path
	// issues a GetPeers) therefore cannot deadlock: the read loop stays
	// free to pump the response the re-entrant call waits for. The
	// queue must be unbounded — were the read loop to block appending
	// while the dispatcher sat inside a re-entrant round trip, the
	// original deadlock would be back.
	evMu     sync.Mutex
	evBuf    []clientEvent
	evNotify chan struct{}
}

// clientEvent is one queued asynchronous callback: a relayed peer
// message, or a peer-departure notice (gone set).
type clientEvent struct {
	relay Relay
	gone  string
}

// Dial connects to a PDN server from the given simulated host.
func Dial(ctx context.Context, host *netsim.Host, server netip.AddrPort) (*Client, error) {
	conn, err := host.Dial(ctx, server)
	if err != nil {
		return nil, fmt.Errorf("signal: dial %v: %w", server, err)
	}
	return newClient(conn), nil
}

// newClient starts the read and dispatch loops over an established
// connection.
func newClient(conn net.Conn) *Client {
	c := &Client{
		codec:    wire.NewCodecSize(conn, sessionBufSize),
		respCh:   make(chan wire.Envelope, 1),
		done:     make(chan struct{}),
		evNotify: make(chan struct{}, 1),
	}
	go c.readLoop()
	go c.dispatchLoop()
	return c
}

// OnRelay installs the handler invoked for each relayed peer message
// (connection offers/answers). Must be set before relays can arrive.
func (c *Client) OnRelay(fn func(Relay)) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.relayFn = fn
}

// OnPeerGone installs the handler invoked when the server reports that
// a peer this client tried to relay to no longer exists. The SDK uses
// it to abort connection attempts at churned-out peers immediately
// instead of waiting out the answer timeout.
func (c *Client) OnPeerGone(fn func(peerID string)) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.peerGoneFn = fn
}

// Done returns a channel closed when the connection to the server ends
// — whether by Close, a server-side disconnect, or a network failure.
// Reconnect logic (pdnclient's rejoin-with-backoff) watches it to
// detect signaling loss without polling.
func (c *Client) Done() <-chan struct{} { return c.done }

// Err reports why the connection ended (io.EOF for an orderly remote
// close). It returns nil while the client is still connected.
func (c *Client) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.closeErr
}

// readLoop pumps inbound envelopes: relays go to the handler, responses
// to the pending request.
func (c *Client) readLoop() {
	for {
		env, err := c.codec.Read()
		if err != nil {
			c.mu.Lock()
			c.closeErr = err
			c.mu.Unlock()
			close(c.done)
			return
		}
		if env.Type == MsgRelay {
			var rel Relay
			if err := env.Decode(&rel); err == nil {
				c.pushEvent(clientEvent{relay: rel})
			}
			continue
		}
		if env.Type == MsgPeerGone {
			var pg PeerGone
			if err := env.Decode(&pg); err == nil {
				for _, id := range pg.Peers {
					c.pushEvent(clientEvent{gone: id})
				}
			}
			continue
		}
		if env.Type == MsgError {
			// A not_found relay error names a vanished peer. No
			// request/response exchange ever answers with one (only
			// one-way relays do), so it is always an asynchronous
			// departure notice — even when a round trip is in flight,
			// it must not be mistaken for that request's response.
			var info ErrorInfo
			if err := env.Decode(&info); err == nil && info.Code == CodeNotFound {
				if id, ok := strings.CutPrefix(info.Message, "peer "); ok {
					c.pushEvent(clientEvent{gone: id})
					continue
				}
			}
		}
		select {
		case c.respCh <- env:
		default:
			// Unsolicited response; drop rather than block the loop.
		}
	}
}

// pushEvent queues an asynchronous callback for the dispatcher. The
// read loop never blocks here.
func (c *Client) pushEvent(ev clientEvent) {
	c.evMu.Lock()
	c.evBuf = append(c.evBuf, ev)
	c.evMu.Unlock()
	select {
	case c.evNotify <- struct{}{}:
	default:
	}
}

// takeEvents swaps out everything queued since the last call.
func (c *Client) takeEvents() []clientEvent {
	c.evMu.Lock()
	evs := c.evBuf
	c.evBuf = nil
	c.evMu.Unlock()
	return evs
}

// dispatchLoop runs relay and peer-gone callbacks off the read loop.
// The read loop queues its last events before closing done, so the
// final drain after done observes everything.
func (c *Client) dispatchLoop() {
	for {
		c.runEvents(c.takeEvents())
		select {
		case <-c.evNotify:
		case <-c.done:
			c.runEvents(c.takeEvents())
			return
		}
	}
}

// runEvents invokes the installed handlers for a drained batch.
func (c *Client) runEvents(evs []clientEvent) {
	for _, ev := range evs {
		c.mu.Lock()
		relayFn, goneFn := c.relayFn, c.peerGoneFn
		c.mu.Unlock()
		switch {
		case ev.gone != "":
			if goneFn != nil {
				goneFn(ev.gone)
			}
		default:
			if relayFn != nil {
				relayFn(ev.relay)
			}
		}
	}
}

// roundTrip sends a request and waits for the next response envelope,
// giving up when ctx is done.
func (c *Client) roundTrip(ctx context.Context, typ string, payload any) (wire.Envelope, error) {
	c.reqMu.Lock()
	defer c.reqMu.Unlock()
	// Drain any stale response left by a previous failed exchange.
	select {
	case <-c.respCh:
	default:
	}
	if err := c.codec.Send(typ, payload); err != nil {
		return wire.Envelope{}, err
	}
	var env wire.Envelope
	//lint:ignore pdnlint/mutexspan reqMu is the request slot: holding it across the response wait is what pairs responses with requests, and readLoop (the sender on respCh) never takes it
	select {
	case env = <-c.respCh:
	case <-c.done:
		// A server that replies and then hangs up — every redirect, every
		// auth rejection — can have both arms ready by the time the caller
		// gets here. The read loop queues a reply before it can see the
		// close behind it, so a delivered reply is the answer.
		select {
		case env = <-c.respCh:
		default:
			return wire.Envelope{}, c.closeErr
		}
	case <-ctx.Done():
		return wire.Envelope{}, ctx.Err()
	}
	if env.Type == MsgError {
		var info ErrorInfo
		if err := env.Decode(&info); err != nil {
			return wire.Envelope{}, err
		}
		return wire.Envelope{}, &ServerError{Info: info}
	}
	return env, nil
}

// Join authenticates with the server and returns the welcome. When the
// context carries an active obs span and the request does not already
// name a trace, the join is stamped with the span's TraceContext so the
// serving server's spans stitch into it. A join that reaches a
// federated server which does not own the swarm returns *RedirectError.
func (c *Client) Join(ctx context.Context, req JoinRequest) (Welcome, error) {
	if req.Trace == "" {
		req.Trace = obs.ContextString(ctx)
	}
	env, err := c.roundTrip(ctx, MsgJoin, req)
	if err != nil {
		return Welcome{}, err
	}
	if env.Type == MsgRedirect {
		var rd Redirect
		if err := env.Decode(&rd); err != nil {
			return Welcome{}, err
		}
		return Welcome{}, &RedirectError{Redirect: rd}
	}
	if env.Type != MsgWelcome {
		return Welcome{}, fmt.Errorf("signal: unexpected response %q", env.Type)
	}
	var w Welcome
	if err := env.Decode(&w); err != nil {
		return Welcome{}, err
	}
	return w, nil
}

// GetPeers requests up to max neighbor candidates, propagating the
// context's active span (if any) so the server's match span joins the
// caller's trace.
func (c *Client) GetPeers(ctx context.Context, max int) ([]PeerInfo, error) {
	env, err := c.roundTrip(ctx, MsgGetPeers, GetPeersReq{Max: max, Trace: obs.ContextString(ctx)})
	if err != nil {
		return nil, err
	}
	if env.Type != MsgPeers {
		return nil, fmt.Errorf("signal: unexpected response %q", env.Type)
	}
	var resp PeersResp
	if err := env.Decode(&resp); err != nil {
		return nil, err
	}
	return resp.Peers, nil
}

// SendStats reports usage (one-way).
func (c *Client) SendStats(st Stats) error {
	return c.codec.Send(MsgStats, st)
}

// Relay forwards an opaque message to another peer via the server
// (one-way), outside any trace.
func (c *Client) Relay(to, kind string, payload any) error {
	return c.relay("", to, kind, payload)
}

// RelayCtx is Relay stamped with the context's active span, so the
// server's relay span and the recipient's handling join the sender's
// trace (connection setup triggered by a segment fetch stays in that
// fetch's tree).
func (c *Client) RelayCtx(ctx context.Context, to, kind string, payload any) error {
	return c.relay(obs.ContextString(ctx), to, kind, payload)
}

func (c *Client) relay(trace, to, kind string, payload any) error {
	raw, err := json.Marshal(payload)
	if err != nil {
		return fmt.Errorf("signal: marshal relay payload: %w", err)
	}
	return c.codec.Send(MsgRelay, Relay{To: to, Kind: kind, Payload: raw, Trace: trace})
}

// ReportIM submits integrity metadata for a CDN-fetched segment
// (one-way; the server may respond with a blacklisting error, which
// surfaces as a closed connection).
func (c *Client) ReportIM(rep IMReport) error {
	return c.codec.Send(MsgIMReport, rep)
}

// ReportBadKey reports a static key whose possession proof failed in a
// secure-transport handshake (one-way, like ReportIM); enough distinct
// reporters make the server quarantine the key.
func (c *Client) ReportBadKey(staticKeyHex string) error {
	return c.codec.Send(MsgBadKey, BadKeyReport{StaticKey: staticKeyHex})
}

// GetSIM fetches the signed integrity metadata for a segment.
func (c *Client) GetSIM(ctx context.Context, key GetSIM) (SIM, error) {
	env, err := c.roundTrip(ctx, MsgGetSIM, key)
	if err != nil {
		return SIM{}, err
	}
	if env.Type != MsgSIM {
		return SIM{}, fmt.Errorf("signal: unexpected response %q", env.Type)
	}
	var sim SIM
	if err := env.Decode(&sim); err != nil {
		return SIM{}, err
	}
	return sim, nil
}

// Close ends the session.
func (c *Client) Close() error {
	c.codec.Send(MsgBye, nil)
	return c.codec.Close()
}
