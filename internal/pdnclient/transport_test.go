package pdnclient

import (
	"bytes"
	"context"
	"errors"
	"net"
	"net/http"
	"net/netip"
	"net/url"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/stealthy-peers/pdnsec/internal/dtls"
	"github.com/stealthy-peers/pdnsec/internal/media"
	"github.com/stealthy-peers/pdnsec/internal/netsim"
	"github.com/stealthy-peers/pdnsec/internal/secure"
	"github.com/stealthy-peers/pdnsec/internal/signal"
)

// barePeers builds two peers on one simulated network without running
// them: enough to drive transportHandshake and the neighbor plumbing
// directly.
func barePeers(t *testing.T) (a, b *Peer) {
	t.Helper()
	n := netsim.New(netsim.Config{})
	mk := func(ip string) *Peer {
		p, err := New(Config{Host: n.MustHost(netip.MustParseAddr(ip)), Network: n, Video: "bbb", Rendition: "360p"})
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	return mk("66.24.9.1"), mk("66.24.9.2")
}

// admit publishes the session a welcome would admit p to, as join does.
func admit(p *Peer, sig *signal.Client, w signal.Welcome) {
	p.mu.Lock()
	p.sess = p.newSession(sig, w)
	p.mu.Unlock()
}

// admitSecure gives a bare peer what a secure-profile join would have:
// the policy, a session ID and the matcher's voucher for its key.
func admitSecure(t *testing.T, ta *secure.TransportAuthority, p *Peer, id string) {
	t.Helper()
	v, err := ta.Vouch(id, "bbb/360p", p.StaticKeyHex())
	if err != nil {
		t.Fatal(err)
	}
	admit(p, nil, signal.Welcome{PeerID: id, Voucher: v, Policy: signal.Policy{
		SecureTransport: true,
		TransportPubKey: ta.PublicKeyHex(),
	}})
}

// TestHandshakeWatchdogSparesLiveConn: callers cancel the connect
// context the moment the handshake returns (connect's deferred
// endAttempt). The deadline watchdog must not fire on that cancel — a
// conn with a burned deadline fails its first request, which costs the
// viewer a CDN fallback and a second connect.
func TestHandshakeWatchdogSparesLiveConn(t *testing.T) {
	for _, profile := range []string{"dtls", "secure"} {
		t.Run(profile, func(t *testing.T) {
			pa, pb := barePeers(t)
			if profile == "secure" {
				ta, err := secure.NewTransportAuthority()
				if err != nil {
					t.Fatal(err)
				}
				admitSecure(t, ta, pa, "a")
				admitSecure(t, ta, pb, "b")
			}
			ln, err := pb.cfg.Host.Listen(9000)
			if err != nil {
				t.Fatal(err)
			}
			defer ln.Close()

			handshake := func(p *Peer, raw net.Conn, theirKey string, client bool) (p2pConn, error) {
				ctx, cancel := context.WithCancel(context.Background())
				defer cancel()
				return p.transportHandshake(ctx, p.session(), raw, "", theirKey, client)
			}
			for i := 0; i < 200; i++ {
				type res struct {
					c   p2pConn
					err error
				}
				srv := make(chan res, 1)
				go func() {
					raw, err := ln.Accept()
					if err != nil {
						srv <- res{nil, err}
						return
					}
					c, err := handshake(pb, raw, "", false)
					srv <- res{c, err}
				}()
				raw, err := pa.cfg.Host.Dial(context.Background(), ln.AddrPort())
				if err != nil {
					t.Fatal(err)
				}
				ca, err := handshake(pa, raw, pb.StaticKeyHex(), true)
				if err != nil {
					t.Fatalf("handshake %d: client: %v", i, err)
				}
				r := <-srv
				if r.err != nil {
					t.Fatalf("handshake %d: server: %v", i, r.err)
				}
				cb := r.c
				echo := make(chan error, 1)
				go func() {
					msg, err := cb.RecvInto(nil)
					if err == nil {
						err = cb.Send(msg)
					}
					if err != nil {
						cb.Close() // unblock the requester's Recv
					}
					echo <- err
				}()
				if err := ca.Send([]byte("want")); err != nil {
					t.Fatalf("handshake %d: first send: %v", i, err)
				}
				if got, err := ca.RecvInto(nil); err != nil || string(got) != "want" {
					t.Fatalf("handshake %d: first round trip: %q, %v (echo side: %v)", i, got, err, <-echo)
				}
				if err := <-echo; err != nil {
					t.Fatalf("handshake %d: echo side: %v", i, err)
				}
				ca.Close()
				cb.Close()
			}
		})
	}
}

// breakableConn is a p2pConn whose read side can be broken from outside
// without going through Close — a neighbor dying on the wire.
type breakableConn struct {
	broken chan struct{}
	once   sync.Once
}

func (c *breakableConn) Send([]byte) error { return nil }
func (c *breakableConn) RecvInto([]byte) ([]byte, error) {
	<-c.broken
	return nil, errors.New("conn broken")
}
func (c *breakableConn) Close() error { c.breakNow(); return nil }
func (c *breakableConn) breakNow()    { c.once.Do(func() { close(c.broken) }) }

// TestTeardownWhileNeighborsBreak: the read loop's evict and teardown
// both close a neighbor; tearing a peer down while its connections are
// dying must close each exactly once ("close of closed channel" panic).
func TestTeardownWhileNeighborsBreak(t *testing.T) {
	const rounds, fanout = 2000, 8
	for r := 0; r < rounds; r++ {
		p, _ := barePeers(t)
		conns := make([]*breakableConn, fanout)
		for i := range conns {
			conns[i] = &breakableConn{broken: make(chan struct{})}
			p.addNeighbor(string(rune('a'+i)), conns[i])
		}
		var wg sync.WaitGroup
		start := make(chan struct{})
		for _, c := range conns {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				c.breakNow()
			}()
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			p.teardown()
		}()
		close(start)
		wg.Wait()
		if n := p.NeighborCount(); n != 0 {
			t.Fatalf("round %d: %d neighbors left after teardown", r, n)
		}
	}
}

// TestAddNeighborAfterTeardownIsRefused: a connect or answer that was in
// flight when teardown snapshotted the neighbor set finishes behind it.
// Registering that connection would leave it open with nobody to close
// it — teardown (and so Run) then hangs on its read loop until the far
// side hangs up, which a lingering far side never does.
func TestAddNeighborAfterTeardownIsRefused(t *testing.T) {
	p, _ := barePeers(t)
	p.teardown()
	late := &breakableConn{broken: make(chan struct{})}
	p.addNeighbor("late", late)
	select {
	case <-late.broken:
	default:
		t.Fatal("connection registered after teardown was left open")
	}
	if n := p.NeighborCount(); n != 0 {
		t.Fatalf("%d neighbors registered after teardown", n)
	}
	p.wg.Wait() // no read loop may have been started for it
}

// TestStopLingerEarlyOnlySkipsLinger: StopLinger before playback ends
// must not look like shutdown to the rest of the peer (the reconnect
// loop and rejoin watch p.closed).
func TestStopLingerEarlyOnlySkipsLinger(t *testing.T) {
	p, _ := barePeers(t)
	p.StopLinger()
	p.StopLinger() // idempotent
	select {
	case <-p.closed:
		t.Fatal("StopLinger closed the peer")
	default:
	}
	select {
	case <-p.lingerStop:
	default:
		t.Fatal("StopLinger did not end the linger phase")
	}
}

// TestHTTPGetIsBounded: the CDN is not trusted (the pollution attacker
// may run it), so a body is read to its declared length or to
// maxHTTPBody, whichever the response allows, and a response that ends
// short of its declared length is an error, never a short body. A
// declared length that fits the buffer handed in is read into it.
func TestHTTPGetIsBounded(t *testing.T) {
	pa, pb := barePeers(t)
	body := bytes.Repeat([]byte("segment!"), 8<<10)
	mux := http.NewServeMux()
	mux.HandleFunc("/declared", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Length", strconv.Itoa(len(body)))
		w.Write(body)
	})
	mux.HandleFunc("/chunked", func(w http.ResponseWriter, r *http.Request) {
		w.(http.Flusher).Flush() // headers leave before the length is known
		w.Write(body)
	})
	mux.HandleFunc("/short", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Length", strconv.Itoa(len(body)))
		w.Write(body[:100])
	})
	mux.HandleFunc("/endless", func(w http.ResponseWriter, r *http.Request) {
		w.(http.Flusher).Flush()
		for r.Context().Err() == nil {
			if _, err := w.Write(make([]byte, 1<<20)); err != nil {
				return
			}
		}
	})
	base, cl := serveLogged(t, pb.cfg.Host, mux)
	pa.cdn.origin, _ = url.Parse(base)
	for _, path := range []string{"/declared", "/chunked"} {
		got, err := pa.cdn.get(context.Background(), path, nil)
		if err != nil || !bytes.Equal(got, body) {
			t.Errorf("%s: %d bytes, %v; want the %d-byte body", path, len(got), err, len(body))
		}
	}
	for _, size := range []int{len(body), 2 * len(body), len(body) - 1} {
		buf := make([]byte, size)
		got, err := pa.cdn.get(context.Background(), "/declared", buf)
		if err != nil || !bytes.Equal(got, body) {
			t.Errorf("/declared into %d bytes: %d bytes, %v; want the %d-byte body", size, len(got), err, len(body))
		}
		if reused := &got[0] == &buf[0]; reused != (size >= len(body)) {
			t.Errorf("/declared into %d bytes: read into the buffer handed in = %v", size, reused)
		}
	}
	if got, err := pa.cdn.get(context.Background(), "/short", make([]byte, len(body))); err == nil {
		t.Errorf("/short: %d bytes and no error; want an error", len(got))
	}
	got, err := pa.cdn.get(context.Background(), "/endless", nil)
	if err != nil || len(got) != maxHTTPBody {
		t.Errorf("/endless: %d bytes, %v; want exactly maxHTTPBody", len(got), err)
	}
	// The rest of that body is never read: the connection goes with it.
	before := cl.opened.Load()
	if got, err := pa.cdn.get(context.Background(), "/declared", nil); err != nil || !bytes.Equal(got, body) {
		t.Errorf("/declared after /endless: %d bytes, %v", len(got), err)
	}
	if n := cl.opened.Load(); n != before+1 {
		t.Errorf("the GET after a body cut off at maxHTTPBody opened %d connections, want 1", n-before)
	}
}

// answeringConn is a p2pConn whose far side answers every want from
// segment, as a found header and then the body; a test pushes extra
// messages through in. onWant, when set, runs before an answer is
// queued; noBody leaves the body out of the answer. recvs counts the
// read loop's RecvInto calls.
type answeringConn struct {
	breakableConn
	in      chan []byte
	segment func(media.SegmentKey) []byte
	onWant  func()
	noBody  bool
	recvs   atomic.Int64
}

func newAnsweringConn(segment func(media.SegmentKey) []byte) *answeringConn {
	return &answeringConn{
		breakableConn: breakableConn{broken: make(chan struct{})},
		in:            make(chan []byte, 8), // a want's answer plus the messages a test injects around it
		segment:       segment,
	}
}

// header encodes h as the far side sends it.
func header(t *testing.T, h p2pMsg) []byte {
	t.Helper()
	frame, err := appendMsg(nil, h)
	if err != nil {
		t.Fatal(err)
	}
	return frame
}

// inject queues an unprompted found answer for key.
func (c *answeringConn) inject(t *testing.T, key media.SegmentKey) {
	t.Helper()
	c.in <- header(t, p2pMsg{Op: opSegment, Key: key, Found: true})
	c.in <- c.segment(key)
}

func (c *answeringConn) Send(msg []byte) error {
	hdr, err := decodeMsg(msg, p2pMsg{})
	if err != nil || hdr.Op != opWant {
		return err
	}
	if c.onWant != nil {
		c.onWant()
	}
	frame, err := appendMsg(nil, p2pMsg{Op: opSegment, Key: hdr.Key, Found: true})
	if err != nil {
		return err
	}
	c.in <- frame
	if !c.noBody {
		c.in <- c.segment(hdr.Key)
	}
	return nil
}

func (c *answeringConn) RecvInto([]byte) ([]byte, error) {
	c.recvs.Add(1)
	select {
	case f := <-c.in:
		return f, nil
	case <-c.broken:
		return nil, errors.New("conn broken")
	}
}

// hangUpConn answers a want and then dies on the wire, and does not let
// the want's Send return until the neighbor's read loop has parked the
// answer and closed the neighbor behind it.
type hangUpConn struct {
	*answeringConn
	nb *neighbor
}

func (c *hangUpConn) Send(msg []byte) error {
	err := c.answeringConn.Send(msg)
	for len(c.nb.respCh) == 0 {
		runtime.Gosched()
	}
	c.breakNow()
	<-c.nb.closedC
	return err
}

// TestAnswerThenHangUpStillAnswers: a seeder that serves a segment and
// leaves has still served it. The request's wait used to choose at
// random between the parked answer and the closed connection, and the
// wrong pick cost a CDN fallback.
func TestAnswerThenHangUpStillAnswers(t *testing.T) {
	segment := func(k media.SegmentKey) []byte { return []byte{byte(k.Index), 1, 2, 3} }
	key := media.SegmentKey{Video: "bbb", Rendition: "360p", Index: 7}
	// Each round the unfixed wait gave up with probability 1/2.
	for round := 0; round < 64; round++ {
		p, _ := barePeers(t)
		admit(p, nil, signal.Welcome{Policy: signal.Policy{P2PEnabled: true}})
		conn := &hangUpConn{answeringConn: newAnsweringConn(segment)}
		p.addNeighbor("seeder", conn)
		p.mu.Lock()
		conn.nb = p.neighbors["seeder"]
		p.mu.Unlock()
		data, found := conn.nb.request(context.Background(), key)
		p.teardown()
		if !found || !bytes.Equal(data, segment(key)) {
			t.Fatalf("round %d: request = %v, %v; want the answer sent before the hang-up", round, data, found)
		}
	}
}

// TestStaleSegmentFrameDoesNotShiftResponses: a segment frame nobody
// asked for — sent unprompted, or answering a wait that was given up —
// used to sit in the neighbor's response slot, so every later request
// read the previous request's answer, mismatched, and fell back to the
// CDN for the rest of the session: a one-packet offload kill any swarm
// member could send.
func TestStaleSegmentFrameDoesNotShiftResponses(t *testing.T) {
	segment := func(k media.SegmentKey) []byte { return []byte{byte(k.Index), 1, 2, 3} }
	stale := media.SegmentKey{Video: "bbb", Rendition: "360p", Index: 200}

	for _, tc := range []struct {
		name string
		arm  func(t *testing.T, c *answeringConn, nb *neighbor)
	}{
		{"unsolicited_before_the_request", func(t *testing.T, c *answeringConn, nb *neighbor) {
			c.inject(t, stale)
			waitFor(t, 5*time.Second, func() bool { return len(nb.respCh) == 1 })
		}},
		{"late_between_want_and_answer", func(t *testing.T, c *answeringConn, nb *neighbor) {
			var once sync.Once
			c.onWant = func() { once.Do(func() { c.inject(t, stale) }) }
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p, _ := barePeers(t)
			admit(p, nil, signal.Welcome{Policy: signal.Policy{P2PEnabled: true}})
			conn := newAnsweringConn(segment)
			p.addNeighbor("seeder", conn)
			defer p.teardown()
			p.mu.Lock()
			nb := p.neighbors["seeder"]
			p.mu.Unlock()
			tc.arm(t, conn, nb)

			for i := 0; i < 10; i++ {
				key := media.SegmentKey{Video: "bbb", Rendition: "360p", Index: i}
				data, source, err := p.fetchSegment(context.Background(), key)
				if err != nil || source != SourceP2P || !bytes.Equal(data, segment(key)) {
					t.Fatalf("segment %d: %v from %q, %v; want its own bytes over P2P", i, data, source, err)
				}
			}
			if n := p.metrics.cdnFallbacks.Value(); n != 0 {
				t.Errorf("pdn_cdn_fallbacks_total = %d, want 0", n)
			}
		})
	}
}

// neighborOn registers conn as the neighbor "seeder" of a fresh P2P
// peer, torn down with the test.
func neighborOn(t *testing.T, conn p2pConn) (*Peer, *neighbor) {
	t.Helper()
	p, _ := barePeers(t)
	admit(p, nil, signal.Welcome{Policy: signal.Policy{P2PEnabled: true}})
	p.addNeighbor("seeder", conn)
	t.Cleanup(p.teardown)
	p.mu.Lock()
	defer p.mu.Unlock()
	return p, p.neighbors["seeder"]
}

// TestFoundHeaderWithoutBodyTimesOut: a neighbor that announces a
// segment and never sends it holds the read loop in the body's Recv; the
// request waits out requestTimeout and evicts it, as a silent one.
func TestFoundHeaderWithoutBodyTimesOut(t *testing.T) {
	t.Parallel()
	conn := newAnsweringConn(func(media.SegmentKey) []byte { return []byte("never sent") })
	conn.noBody = true
	p, nb := neighborOn(t, conn)
	start := time.Now()
	if data, found := nb.request(context.Background(), media.SegmentKey{Video: "bbb", Rendition: "360p", Index: 3}); found {
		t.Fatalf("request = %q, found; want a timeout", data)
	}
	if waited := time.Since(start); waited < requestTimeout {
		t.Fatalf("request gave up after %v, want requestTimeout (%v)", waited, requestTimeout)
	}
	if !nb.evicting.Load() || p.NeighborCount() != 0 {
		t.Fatalf("after the timeout: evicted %v, %d neighbors; want the neighbor evicted", nb.evicting.Load(), p.NeighborCount())
	}
}

// TestReadLoopIgnoresStrayMessages: a header with an op nobody knows,
// and a body no found header announced, are ignored — neither is parked
// as an answer, neither costs the neighbor — and the next request gets
// its own segment.
func TestReadLoopIgnoresStrayMessages(t *testing.T) {
	segment := func(k media.SegmentKey) []byte { return bytes.Repeat([]byte{byte(k.Index)}, 64) }
	key := media.SegmentKey{Video: "bbb", Rendition: "360p", Index: 5}
	// A body that starts like a found header for the key but is not one.
	orphan := append(header(t, p2pMsg{Op: opSegment, Key: key, Found: true}), segment(key)...)
	for _, tc := range []struct {
		name string
		msg  []byte
	}{
		{"unknown_op", header(t, p2pMsg{Op: 9, Key: key, Found: true})},
		{"body_without_header", orphan},
		{"empty_message", nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			conn := newAnsweringConn(segment)
			p, nb := neighborOn(t, conn)
			waitFor(t, 5*time.Second, func() bool { return conn.recvs.Load() == 1 })
			conn.in <- tc.msg
			// The loop is back in Recv only once it has dealt with the message.
			waitFor(t, 5*time.Second, func() bool { return conn.recvs.Load() == 2 })
			if len(nb.respCh) != 0 {
				t.Fatalf("%s was parked as an answer", tc.name)
			}
			if data, found := nb.request(context.Background(), key); !found || !bytes.Equal(data, segment(key)) {
				t.Fatalf("request after %s = %q, %v; want the segment", tc.name, data, found)
			}
			if nb.evicting.Load() || p.NeighborCount() != 1 {
				t.Fatalf("after %s: evicted %v, %d neighbors", tc.name, nb.evicting.Load(), p.NeighborCount())
			}
		})
	}
}

// TestHeaderAndBodyStayTogether: two neighbors that serve and request
// each other at once over a real DTLS channel. Each side's read loop
// serves while its playback asks, so wants and answers share each
// direction of the wire; every answer's body must follow its header,
// or the other side reads a want as a segment.
func TestHeaderAndBodyStayTogether(t *testing.T) {
	const segs, rounds = 8, 100
	a, b := barePeers(t)
	seg := func(owner byte, i int) []byte { return bytes.Repeat([]byte{owner, byte(i)}, 16<<10) }
	for _, p := range []*Peer{a, b} {
		admit(p, nil, signal.Welcome{Policy: signal.Policy{P2PEnabled: true}})
		for i := 0; i < segs; i++ {
			p.cache.put(i, seg(p.cfg.Host.Addr().As4()[3], i))
		}
	}
	ra, rb := netsim.Pair(a.cfg.Host, b.cfg.Host, netip.MustParseAddrPort("66.24.9.1:5000"), netip.MustParseAddrPort("66.24.9.2:5000"))
	served := make(chan error, 1)
	go func() {
		cb, err := dtls.Server(rb, b.dtlsConfig(a.Fingerprint()))
		if err == nil {
			b.addNeighbor("a", cb)
		}
		served <- err
	}()
	ca, err := dtls.Client(ra, a.dtlsConfig(b.Fingerprint()))
	if err != nil {
		t.Fatal(err)
	}
	a.addNeighbor("b", ca)
	if err := <-served; err != nil {
		t.Fatal(err)
	}
	defer a.teardown()
	defer b.teardown()

	var wg sync.WaitGroup
	for _, side := range []struct {
		p, far *Peer
		farID  string
	}{{a, b, "b"}, {b, a, "a"}} {
		side.p.mu.Lock()
		nb := side.p.neighbors[side.farID]
		side.p.mu.Unlock()
		owner := side.far.cfg.Host.Addr().As4()[3]
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				key := media.SegmentKey{Video: "bbb", Rendition: "360p", Index: r % segs}
				if data, found := nb.request(context.Background(), key); !found || !bytes.Equal(data, seg(owner, key.Index)) {
					t.Errorf("round %d: %v from peer %d: found %v, %d bytes; want its own segment", r, key, owner, found, len(data))
					return
				}
			}
		}()
	}
	wg.Wait()
}
