package pdnclient

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"net/netip"
	"slices"
	"sync"
	"testing"

	"github.com/stealthy-peers/pdnsec/internal/cdn"
	"github.com/stealthy-peers/pdnsec/internal/defense"
	"github.com/stealthy-peers/pdnsec/internal/media"
	"github.com/stealthy-peers/pdnsec/internal/monitor"
	"github.com/stealthy-peers/pdnsec/internal/netsim"
	"github.com/stealthy-peers/pdnsec/internal/obs"
	"github.com/stealthy-peers/pdnsec/internal/secure"
	"github.com/stealthy-peers/pdnsec/internal/signal"
	"github.com/stealthy-peers/pdnsec/internal/wire"
)

// scriptedSignal is a signaling server in the attacker's hands: it
// welcomes every join with its current policy, matches nobody, and
// answers each get_sim with whatever the test scripted.
type scriptedSignal struct {
	addr netip.AddrPort

	mu     sync.Mutex
	policy signal.Policy
	reply  func(n int, req signal.GetSIM) signal.SIM // n get_sims came before req
	asked  []signal.GetSIM
}

func serveScriptedSignal(t *testing.T, host *netsim.Host, policy signal.Policy, reply func(int, signal.GetSIM) signal.SIM) *scriptedSignal {
	t.Helper()
	ln, err := host.Listen(443)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	s := &scriptedSignal{addr: netip.AddrPortFrom(host.Addr(), 443), policy: policy, reply: reply}
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go s.serve(wire.NewCodec(conn))
		}
	}()
	return s
}

// serve answers one client until it hangs up; a viewer's teardown does.
func (s *scriptedSignal) serve(c *wire.Codec) {
	defer c.Close()
	for {
		env, err := c.Read()
		if err != nil {
			return
		}
		switch env.Type {
		case signal.MsgJoin:
			s.mu.Lock()
			w := signal.Welcome{PeerID: "viewer", SwarmID: "bbb/360p", Policy: s.policy}
			s.mu.Unlock()
			err = c.Send(signal.MsgWelcome, w)
		case signal.MsgGetPeers:
			err = c.Send(signal.MsgPeers, signal.PeersResp{})
		case signal.MsgGetSIM:
			var req signal.GetSIM
			if env.Decode(&req) != nil {
				return
			}
			s.mu.Lock()
			resp := s.reply(len(s.asked), req)
			s.asked = append(s.asked, req)
			s.mu.Unlock()
			err = c.Send(signal.MsgSIM, resp)
		case signal.MsgBye:
			return
		}
		if err != nil {
			return
		}
	}
}

func (s *scriptedSignal) asks() []signal.GetSIM {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]signal.GetSIM(nil), s.asked...)
}

// simBed is what the integrity-path tests share: a video on a CDN, the
// provider's authority over it with every SIM established, and a second
// authority whose signatures the viewer has no reason to trust.
type simBed struct {
	net     *netsim.Network
	video   *media.Video
	im      *defense.IMChecker
	forger  *defense.IMChecker
	cdnBase string
}

func newSIMBed(t *testing.T, segments int) *simBed {
	t.Helper()
	b := &simBed{net: netsim.New(netsim.Config{}), video: smallVideo("bbb", segments), cdnBase: "http://93.184.216.34:80"}
	srv := cdn.New()
	srv.Register(b.video)
	if err := srv.Serve(b.net.MustHost(netip.MustParseAddr("93.184.216.34")), 80); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	for _, im := range []**defense.IMChecker{&b.im, &b.forger} {
		c, err := secure.NewManifestService(b.video)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < segments; i++ {
			if _, _, ok := c.SIM(b.key(i)); !ok {
				t.Fatalf("authority has no SIM for segment %d", i)
			}
		}
		*im = c
	}
	return b
}

func (b *simBed) key(i int) media.SegmentKey {
	return media.SegmentKey{Video: b.video.ID, Rendition: "360p", Index: i}
}

func (b *simBed) segment(key media.SegmentKey) []byte {
	data, err := b.video.SegmentData(key.Rendition, key.Index)
	if err != nil {
		panic(err)
	}
	return data
}

// policy is a secure-profile policy under im's manifest key, with no
// slow start and room for exactly the one neighbor the tests inject — a
// viewer at its neighbor limit asks the matcher for nothing.
func (b *simBed) policy(im *defense.IMChecker) signal.Policy {
	return signal.Policy{
		P2PEnabled:        true,
		MaxNeighbors:      1,
		RequireIMChecking: true,
		ManifestPubKey:    im.ManifestPublicKeyHex(),
	}
}

// window is the reply an honest server gives: im's signed run at key.
func window(im *defense.IMChecker, key media.SegmentKey, count int) signal.SIM {
	hashes, sig, ok := im.SIMWindow(key, count)
	return signal.SIM{Key: key, Window: hashes, Sig: sig, Found: ok}
}

// single is the reply of a server whose service signs no windows.
func single(im *defense.IMChecker, key media.SegmentKey) signal.SIM {
	hash, sig, ok := im.SIM(key)
	return signal.SIM{Key: key, Hash: hash, Sig: sig, Found: ok}
}

// simViewer is a traced, metered viewer joined to a scriptedSignal, with
// one neighbor that answers every want. source records where each played
// segment came from.
type simViewer struct {
	*Peer
	tracer *obs.Tracer
	meter  *monitor.Meter
	reg    *obs.Registry

	mu     sync.Mutex
	source map[int]string
}

// viewer joins a viewer to srv; its neighbor answers from serve.
func (b *simBed) viewer(t *testing.T, srv *scriptedSignal, serve func(media.SegmentKey) []byte) *simViewer {
	t.Helper()
	v := &simViewer{
		tracer: obs.NewTracer(nil),
		meter:  monitor.NewMeter(monitor.DefaultCostModel(), nil),
		reg:    obs.NewRegistry(),
		source: make(map[int]string),
	}
	p, err := New(Config{
		Host:       b.net.MustHost(netip.MustParseAddr("66.24.9.1")),
		Network:    b.net,
		SignalAddr: srv.addr,
		CDNBase:    b.cdnBase,
		Video:      b.video.ID,
		Rendition:  "360p",
		Tracer:     v.tracer,
		Meter:      v.meter,
		Obs:        v.reg,
		OnSegment: func(key media.SegmentKey, data []byte, source string) {
			if !bytes.Equal(data, b.segment(key)) {
				t.Errorf("segment %d played from %s is not the authentic one", key.Index, source)
			}
			v.mu.Lock()
			v.source[key.Index] = source
			v.mu.Unlock()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	v.Peer = p
	p.runCtx = context.Background()
	if err := p.join(context.Background()); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.teardown)
	p.addNeighbor("seeder", newAnsweringConn(serve))
	return v
}

// play plays one segment and returns where it came from.
func (v *simViewer) play(t *testing.T, idx int) string {
	t.Helper()
	if err := v.playSegment(context.Background(), idx); err != nil {
		t.Fatalf("segment %d: %v", idx, err)
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.source[idx]
}

// rejectReasons drains the viewer's trace and returns the reason of
// every im_reject event in it.
func (v *simViewer) rejectReasons(t *testing.T) []string {
	t.Helper()
	var buf bytes.Buffer
	if err := v.tracer.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	var reasons []string
	for sc := bufio.NewScanner(&buf); sc.Scan(); {
		var ev struct {
			Name string `json:"name"`
			Args struct {
				Reason string `json:"reason"`
			} `json:"args"`
		}
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("trace line %q: %v", sc.Text(), err)
		}
		if ev.Name == "im_reject" {
			reasons = append(reasons, ev.Args.Reason)
		}
	}
	return reasons
}

// cached is the run the viewer's current session holds.
func (v *simViewer) cached() (media.SegmentKey, []string) {
	c := &v.session().sims
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.start, c.hashes
}

// TestHostileSIMReplyIsRejected: whatever a hostile signaling server
// does to the first reply — the one the P2P copy of segment 4 is checked
// against — the viewer names the reason, keeps none of it, and falls
// back to the CDN, whose copy is checked against a fresh and now honest
// reply. Were anything of the hostile reply cached, that second ask
// would not happen and segment 5, whose hash several rows poison, would
// be refused over P2P.
func TestHostileSIMReplyIsRejected(t *testing.T) {
	for _, tc := range []struct {
		name   string
		tamper func(b *simBed, req signal.GetSIM) signal.SIM
		reason string
	}{
		{"forged window signature", func(b *simBed, req signal.GetSIM) signal.SIM {
			return window(b.forger, req.Key, req.Count)
		}, "bad_sim_signature"},
		{"one hash flipped", func(b *simBed, req signal.GetSIM) signal.SIM {
			resp := window(b.im, req.Key, req.Count)
			resp.Window[1] = media.Hash([]byte("polluted"))
			return resp
		}, "bad_sim_signature"},
		{"list truncated", func(b *simBed, req signal.GetSIM) signal.SIM {
			resp := window(b.im, req.Key, req.Count)
			resp.Window = resp.Window[:len(resp.Window)-1]
			return resp
		}, "bad_sim_signature"},
		{"start index shifted", func(b *simBed, req signal.GetSIM) signal.SIM {
			next := req.Key
			next.Index++
			resp := window(b.im, next, req.Count)
			resp.Key = req.Key
			return resp
		}, "bad_sim_signature"},
		{"reply for a different key", func(b *simBed, req signal.GetSIM) signal.SIM {
			next := req.Key
			next.Index++
			return window(b.im, next, req.Count)
		}, "bad_sim_reply"},
		{"over-long list", func(b *simBed, req signal.GetSIM) signal.SIM {
			return window(b.im, req.Key, req.Count+1) // genuinely signed, all 17
		}, "bad_sim_reply"},
		{"window signature replayed as a single SIM", func(b *simBed, req signal.GetSIM) signal.SIM {
			resp := window(b.im, req.Key, 1)
			resp.Hash, resp.Window = resp.Window[0], nil
			return resp
		}, "bad_sim_signature"},
		{"single SIM signature replayed as a window", func(b *simBed, req signal.GetSIM) signal.SIM {
			resp := single(b.im, req.Key)
			resp.Window, resp.Hash = []string{resp.Hash}, ""
			return resp
		}, "bad_sim_signature"},
		{"not found", func(b *simBed, req signal.GetSIM) signal.SIM {
			return signal.SIM{Key: req.Key}
		}, "no_sim"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			b := newSIMBed(t, 24)
			srv := serveScriptedSignal(t, b.net.MustHost(netip.MustParseAddr("44.1.1.1")), b.policy(b.im),
				func(n int, req signal.GetSIM) signal.SIM {
					if n == 0 {
						return tc.tamper(b, req)
					}
					return window(b.im, req.Key, req.Count)
				})
			v := b.viewer(t, srv, b.segment)

			if src := v.play(t, 4); src != SourceCDN {
				t.Fatalf("segment 4 played from %q, want the CDN fallback", src)
			}
			if got := v.rejectReasons(t); len(got) != 1 || got[0] != tc.reason {
				t.Fatalf("im_reject reasons %v, want [%s]", got, tc.reason)
			}
			want := window(b.im, b.key(4), simWindow)
			if asks := srv.asks(); len(asks) != 2 || asks[0] != (signal.GetSIM{Key: b.key(4), Count: simWindow}) || asks[1] != asks[0] {
				t.Fatalf("get_sim requests %+v, want the same window asked twice: the rejected reply left nothing behind", asks)
			}
			if start, hashes := v.cached(); start != b.key(4) || !slices.Equal(hashes, want.Window) {
				t.Fatalf("cached run at %v: %v; want the honest run at segment 4", start, hashes)
			}
			if src := v.play(t, 5); src != SourceP2P {
				t.Fatalf("segment 5 played from %q, want P2P under the honest window", src)
			}
			if n := len(srv.asks()); n != 2 {
				t.Fatalf("%d get_sim requests after segment 5, want still 2", n)
			}
			if st := v.Stats(); st.IMRejected != 1 {
				t.Fatalf("IMRejected = %d, want 1", st.IMRejected)
			}
		})
	}
}

// TestSIMCacheDiesWithSession: a rejoin can land on a server with
// another manifest key. The run cached under the old key must not
// outlive the session that verified it — here the new session is served
// the old authority's (perfectly genuine) window, which nothing under
// the new key vouches for.
func TestSIMCacheDiesWithSession(t *testing.T) {
	b := newSIMBed(t, 24)
	current := b.forger // the authority the server answers from
	var srv *scriptedSignal
	srv = serveScriptedSignal(t, b.net.MustHost(netip.MustParseAddr("44.1.1.1")), b.policy(b.forger),
		func(n int, req signal.GetSIM) signal.SIM {
			if n == 1 {
				return window(b.forger, req.Key, req.Count) // stale: signed under the old key
			}
			return window(current, req.Key, req.Count)
		})
	v := b.viewer(t, srv, b.segment)
	if src := v.play(t, 4); src != SourceP2P {
		t.Fatalf("segment 4 played from %q, want P2P", src)
	}
	old := v.session()

	srv.mu.Lock()
	srv.policy, current = b.policy(b.im), b.im
	srv.mu.Unlock()
	if err := v.join(context.Background()); err != nil {
		t.Fatal(err)
	}
	if s := v.session(); s == old || bytes.Equal(s.manifestKey, old.manifestKey) {
		t.Fatal("rejoin did not publish a session under the new manifest key")
	}
	if start, hashes := v.cached(); len(hashes) != 0 {
		t.Fatalf("new session starts with a cached run at %v: %v", start, hashes)
	}
	// Segment 5 lies inside the old session's run: served from that cache
	// it would play over P2P without a question asked.
	if src := v.play(t, 5); src != SourceCDN {
		t.Fatalf("segment 5 played from %q, want the CDN fallback", src)
	}
	if got := v.rejectReasons(t); len(got) != 1 || got[0] != "bad_sim_signature" {
		t.Fatalf("im_reject reasons %v, want [bad_sim_signature]", got)
	}
	if asks := srv.asks(); len(asks) != 3 || asks[1].Key != b.key(5) || asks[2].Key != b.key(5) {
		t.Fatalf("get_sim requests %+v, want segment 4 once, then segment 5 for the P2P copy and again for the CDN's", asks)
	}
	if start, hashes := v.cached(); start != b.key(5) || !slices.Equal(hashes, window(b.im, b.key(5), simWindow).Window) {
		t.Fatalf("cached run at %v: %v; want the new authority's at segment 5", start, hashes)
	}
}

// TestSIMWindowSpansSixteenSegments: one round trip and one signature
// cover simWindow segments, and every one of them is still hashed and
// compared — a polluted copy inside a verified window is refused all the
// same, and the CDN copy that replaces it is hashed once for both its
// check and its IM report. A service that answers with short runs (a
// panel, which establishes SIMs as reports arrive) or signs no windows
// at all costs a round trip per segment and is otherwise no different.
func TestSIMWindowSpansSixteenSegments(t *testing.T) {
	const segments, polluted = 40, 21
	for _, tc := range []struct {
		name  string
		reply func(b *simBed, req signal.GetSIM) signal.SIM
		asks  int
	}{
		{"full windows", func(b *simBed, req signal.GetSIM) signal.SIM { return window(b.im, req.Key, req.Count) }, 3},
		{"runs of one", func(b *simBed, req signal.GetSIM) signal.SIM { return window(b.im, req.Key, 1) }, segments},
		{"no window method", func(b *simBed, req signal.GetSIM) signal.SIM { return single(b.im, req.Key) }, segments},
	} {
		t.Run(tc.name, func(t *testing.T) {
			b := newSIMBed(t, segments)
			srv := serveScriptedSignal(t, b.net.MustHost(netip.MustParseAddr("44.1.1.1")), b.policy(b.im),
				func(_ int, req signal.GetSIM) signal.SIM { return tc.reply(b, req) })
			v := b.viewer(t, srv, func(k media.SegmentKey) []byte {
				data := b.segment(k)
				if k.Index == polluted {
					data[len(data)-1] ^= 1
				}
				return data
			})
			for i := 0; i < segments; i++ {
				want := SourceP2P
				if i == polluted {
					want = SourceCDN
				}
				if src := v.play(t, i); src != want {
					t.Fatalf("segment %d played from %q, want %q", i, src, want)
				}
			}
			if got := v.rejectReasons(t); len(got) != 1 || got[0] != "sim_mismatch" {
				t.Fatalf("im_reject reasons %v, want [sim_mismatch] for the polluted segment", got)
			}
			// Every P2P copy once, and the one CDN copy once.
			segBytes := int64(len(b.segment(b.key(0))))
			if got := v.meter.Snapshot().HashBytes; got != (segments+1)*segBytes {
				t.Fatalf("hashed %d bytes, want %d: each of %d fetched copies exactly once", got, (segments+1)*segBytes, segments+1)
			}
			if n := len(srv.asks()); n != tc.asks {
				t.Fatalf("%d get_sim requests over %d segments, want %d", n, segments, tc.asks)
			}
			if n := v.reg.Counter("pdn_sim_window_fetches_total", "").Value(); n != int64(tc.asks) {
				t.Fatalf("pdn_sim_window_fetches_total = %d, want %d", n, tc.asks)
			}
		})
	}
}
