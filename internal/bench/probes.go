package bench

import (
	"bytes"
	"context"
	"crypto/ed25519"
	"encoding/hex"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/netip"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"github.com/stealthy-peers/pdnsec/internal/analyzer"
	"github.com/stealthy-peers/pdnsec/internal/cdn"
	"github.com/stealthy-peers/pdnsec/internal/defense"
	"github.com/stealthy-peers/pdnsec/internal/dtls"
	"github.com/stealthy-peers/pdnsec/internal/federation"
	"github.com/stealthy-peers/pdnsec/internal/hls"
	"github.com/stealthy-peers/pdnsec/internal/ice"
	"github.com/stealthy-peers/pdnsec/internal/media"
	"github.com/stealthy-peers/pdnsec/internal/netsim"
	"github.com/stealthy-peers/pdnsec/internal/secure"
	"github.com/stealthy-peers/pdnsec/internal/signal"
	"github.com/stealthy-peers/pdnsec/internal/stun"
	"github.com/stealthy-peers/pdnsec/internal/wire"
)

// A probe times one exported call of one layer, in a single goroutine,
// until it has made probeMaxCalls calls or spent probeBudget — but never
// fewer than probeMinCalls, the fewest a median can rest on. The budget
// is fixed so that any two reports' probe numbers are comparable; only
// the toy-sized smoke test runs on probeToyBudget.
const (
	probeMinCalls  = 2 * minBeyond
	probeMaxCalls  = 1000
	probeBudget    = 250 * time.Millisecond
	probeToyBudget = time.Millisecond
	// probePrefill is the swarm size the signaling probes run against.
	probePrefill = 1000
)

// call is one probed operation. before and after run untimed around op.
type call struct {
	before func() error
	op     func() error
	after  func()
}

// loopStats is what one probe loop measured.
type loopStats struct {
	ns         []float64 // per-call durations, sorted ascending
	allocs     float64   // process-wide mallocs per call
	allocBytes float64   // process-wide bytes allocated per call
}

func (s loopStats) p50() float64 { return s.ns[nearestRank(len(s.ns), 0.50)] }

type probes struct {
	ctx    context.Context
	budget time.Duration
	seed   int64
	spans  *SpanLog
	out    map[string]Value
}

// RunProbes measures every layer's probe metrics. They do not depend on
// the workload: each traced run repeats them so a per-layer change shows
// next to whichever end-to-end metric it should move.
func RunProbes(ctx context.Context, seed int64, budget time.Duration, spans *SpanLog) (map[string]Value, error) {
	p := &probes{ctx: ctx, budget: budget, seed: seed, spans: spans, out: make(map[string]Value)}
	for _, probe := range []func() error{
		p.signal, p.federation, p.stunICE, p.dtls, p.secure, p.wire,
		p.defense, p.mediaHLS, p.cdn, p.netsim,
	} {
		if err := probe(); err != nil {
			return nil, err
		}
	}
	return p.out, nil
}

// loop times c.op under a harness span per call.
func (p *probes) loop(name string, c call) (loopStats, error) {
	parent := p.spans.Begin(name, -1)
	defer p.spans.End(parent)
	var st loopStats
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	calls := 0
	for ; calls < probeMinCalls || (calls < probeMaxCalls && time.Since(start) < p.budget); calls++ {
		if err := p.ctx.Err(); err != nil {
			return st, err
		}
		if c.before != nil {
			if err := c.before(); err != nil {
				return st, fmt.Errorf("bench: probe %s: %w", name, err)
			}
		}
		id := p.spans.Begin("call", parent)
		err := c.op()
		st.ns = append(st.ns, float64(p.spans.End(id)))
		if c.after != nil {
			c.after()
		}
		if err != nil {
			return st, fmt.Errorf("bench: probe %s: %w", name, err)
		}
	}
	runtime.ReadMemStats(&after)
	st.allocs = float64(after.Mallocs-before.Mallocs) / float64(calls)
	st.allocBytes = float64(after.TotalAlloc-before.TotalAlloc) / float64(calls)
	sort.Float64s(st.ns)
	return st, nil
}

func (p *probes) set(name, unit string, v float64, n int) {
	p.out[name] = Value{Value: v, Unit: unit, N: n}
}

// timed runs a loop and records its median under name in the unit's
// scale (ns per unit: 1 for ns, 1e3 for us, 1e6 for ms).
func (p *probes) timed(name, unit string, c call) (loopStats, error) {
	st, err := p.loop(name, c)
	if err != nil {
		return st, err
	}
	scale := map[string]float64{"ns": 1, "us": 1e3, "ms": 1e6}[unit]
	p.set(name, unit, st.p50()/scale, len(st.ns))
	return st, nil
}

func probeIP(n int) netip.Addr {
	return netip.AddrFrom4([4]byte{10, byte(n >> 16), byte(n >> 8), byte(n)})
}

func newHosts(n *netsim.Network, from, count int) ([]*netsim.Host, error) {
	hosts := make([]*netsim.Host, count)
	for i := range hosts {
		h, err := n.NewHost(probeIP(from + i))
		if err != nil {
			return nil, err
		}
		hosts[i] = h
	}
	return hosts, nil
}

// pair connects two fresh hosts with a netsim stream.
func pair(n *netsim.Network, from int) (net.Conn, net.Conn, error) {
	hs, err := newHosts(n, from, 2)
	if err != nil {
		return nil, nil, err
	}
	a, b := netsim.Pair(hs[0], hs[1],
		netip.AddrPortFrom(hs[0].Addr(), 5000), netip.AddrPortFrom(hs[1].Addr(), 5000))
	return a, b, nil
}

// signal: 1 server, 16 shards, one swarm pre-filled with 1000 peers.
func (p *probes) signal() error {
	n := netsim.New(netsim.Config{})
	srvHost, err := n.NewHost(probeIP(1))
	if err != nil {
		return err
	}
	video := analyzer.SmallVideo("probe", 8, 16<<10)
	im, err := secure.NewManifestService(video)
	if err != nil {
		return err
	}
	srv := signal.NewServer(signal.Config{Policy: signal.DefaultPolicy(), IM: im, Seed: p.seed, Shards: 16})
	if err := srv.Serve(srvHost, 443); err != nil {
		return err
	}
	defer srv.Close()
	addr := netip.AddrPortFrom(srvHost.Addr(), 443)

	next := 100
	var clients []*signal.Client
	defer func() {
		for _, c := range clients {
			c.Close()
		}
	}()
	join := func(setup func(*signal.Client)) (*signal.Client, signal.Welcome, error) {
		next++
		h, err := n.NewHost(probeIP(next))
		if err != nil {
			return nil, signal.Welcome{}, err
		}
		c, err := signal.Dial(p.ctx, h, addr)
		if err != nil {
			return nil, signal.Welcome{}, err
		}
		clients = append(clients, c)
		if setup != nil {
			setup(c)
		}
		w, err := c.Join(p.ctx, signal.JoinRequest{
			Video: video.ID, Rendition: "360p", Fingerprint: "fp" + strconv.Itoa(next),
		})
		return c, w, err
	}
	for i := 0; i < probePrefill; i++ {
		if _, _, err := join(nil); err != nil {
			return fmt.Errorf("bench: probe signal: prefill: %w", err)
		}
	}

	if _, err := p.timed("signal.join_us", "us", call{op: func() error {
		_, _, err := join(nil)
		return err
	}}); err != nil {
		return err
	}

	a, _, err := join(nil)
	if err != nil {
		return err
	}
	st, err := p.timed("signal.get_peers_us", "us", call{op: func() error {
		_, err := a.GetPeers(p.ctx, 8)
		return err
	}})
	if err != nil {
		return err
	}
	p.set("signal.allocs_per_op", "count", st.allocs, len(st.ns))

	got := make(chan struct{}, 1)
	_, wb, err := join(func(c *signal.Client) {
		c.OnRelay(func(signal.Relay) { got <- struct{}{} })
	})
	if err != nil {
		return err
	}
	if _, err := p.timed("signal.relay_us", "us", call{op: func() error {
		if err := a.Relay(wb.PeerID, "probe", 1); err != nil {
			return err
		}
		select {
		case <-got:
			return nil
		case <-p.ctx.Done():
			return p.ctx.Err()
		}
	}}); err != nil {
		return err
	}

	key := media.SegmentKey{Video: video.ID, Rendition: "360p", Index: 0}
	_, err = p.timed("signal.get_sim_us", "us", call{op: func() error {
		sim, err := a.GetSIM(p.ctx, signal.GetSIM{Key: key})
		if err == nil && !sim.Found {
			err = fmt.Errorf("no SIM for %v", key)
		}
		return err
	}})
	return err
}

// federation: a join through a non-owner of a 3-server plane, minus a
// direct join at the owner — the cost of the redirect hop.
func (p *probes) federation() error {
	n := netsim.New(netsim.Config{})
	hosts, err := newHosts(n, 1, 3)
	if err != nil {
		return err
	}
	plane := federation.NewPlane(federation.PlaneConfig{
		Servers: 3,
		Base:    signal.Config{Policy: signal.DefaultPolicy(), Seed: p.seed, Shards: 16},
	})
	if err := plane.Serve(hosts, 443); err != nil {
		return err
	}
	defer plane.Close()
	req := signal.JoinRequest{Video: "probe", Rendition: "360p", Fingerprint: "fp"}
	_, owner, _ := plane.Ring().Owner(req.Video + "/" + req.Rendition)
	other := plane.Addr(0)
	if other == owner {
		other = plane.Addr(1)
	}
	next := 100
	joinVia := func(name string, entry netip.AddrPort) (loopStats, error) {
		var res *federation.JoinResult
		return p.loop(name, call{
			op: func() error {
				next++
				h, err := n.NewHost(probeIP(next))
				if err != nil {
					return err
				}
				res, err = federation.Join(p.ctx, h, federation.NewPeerstore([]netip.AddrPort{entry}, time.Now), req, nil)
				return err
			},
			after: func() {
				if res != nil {
					res.Client.Close()
				}
			},
		})
	}
	direct, err := joinVia("federation.join_direct", owner)
	if err != nil {
		return err
	}
	redirected, err := joinVia("federation.join_redirect", other)
	if err != nil {
		return err
	}
	p.set("federation.join_redirect_us", "us", (redirected.p50()-direct.p50())/1e3, len(redirected.ns))
	return nil
}

func (p *probes) stunICE() error {
	st, err := p.timed("stun.codec_ns", "ns", call{op: func() error {
		_, err := stun.Decode(stun.BindingRequest("probe", 12345).Encode())
		return err
	}})
	if err != nil {
		return err
	}
	p.set("stun.codec_allocs", "count", st.allocs, len(st.ns))

	n := netsim.New(netsim.Config{})
	hosts, err := newHosts(n, 1, 3)
	if err != nil {
		return err
	}
	pc, err := hosts[0].ListenPacket(3478)
	if err != nil {
		return err
	}
	stunCtx, cancel := context.WithCancel(p.ctx)
	stunDone := make(chan struct{})
	go func() {
		defer close(stunDone)
		ice.ServeSTUN(stunCtx, pc)
	}()
	defer func() {
		cancel()
		pc.Close()
		<-stunDone
	}()
	stunAddr := netip.AddrPortFrom(hosts[0].Addr(), 3478)

	var agent *ice.Agent
	if _, err := p.timed("ice.gather_ms", "ms", call{
		op: func() error {
			var err error
			if agent, err = ice.NewAgent(hosts[1], "probe"); err != nil {
				return err
			}
			_, err = agent.Gather(p.ctx, stunAddr)
			return err
		},
		after: func() {
			if agent != nil {
				agent.Close()
				agent = nil
			}
		},
	}); err != nil {
		return err
	}

	// Two agents checking each other, as both ends of a connect do.
	var agents [2]*ice.Agent
	var cands [2][]ice.Candidate
	_, err = p.timed("ice.check_ms", "ms", call{
		before: func() error {
			for i := range agents {
				a, err := ice.NewAgent(hosts[1+i], "probe"+strconv.Itoa(i))
				if err != nil {
					return err
				}
				agents[i] = a
				if cands[i], err = a.Gather(p.ctx, stunAddr); err != nil {
					return err
				}
			}
			return nil
		},
		op: func() error {
			peerErr := make(chan error, 1)
			go func() {
				_, err := agents[1].Check(p.ctx, cands[0])
				peerErr <- err
			}()
			_, err := agents[0].Check(p.ctx, cands[1])
			if perr := <-peerErr; err == nil {
				err = perr
			}
			return err
		},
		after: func() {
			for i, a := range agents {
				if a != nil {
					a.Close()
					agents[i] = nil
				}
			}
		},
	})
	return err
}

// msgConn is the message transport both record layers offer.
type msgConn interface {
	Send(msg []byte) error
	Recv() ([]byte, error)
	Close() error
}

// handshakeAndTransfer probes one record layer: handshake latency over a
// fresh netsim pair, then one Send + peer Recv at three message sizes on
// an established channel.
func (p *probes) handshakeAndTransfer(layer string, shake func(a, b net.Conn) (msgConn, msgConn, error)) error {
	n := netsim.New(netsim.Config{})
	next := 0
	var rawA, rawB net.Conn
	var ca, cb msgConn
	closeAll := func() {
		for _, c := range []io.Closer{rawA, rawB} {
			if c != nil {
				c.Close()
			}
		}
		rawA, rawB, ca, cb = nil, nil, nil, nil
	}
	defer closeAll()
	dial := call{
		before: func() error {
			next += 2
			var err error
			rawA, rawB, err = pair(n, next)
			return err
		},
		op: func() error {
			var err error
			ca, cb, err = shake(rawA, rawB)
			return err
		},
	}
	shakeOnly := dial
	shakeOnly.after = closeAll
	if _, err := p.timed(layer+".handshake_us", "us", shakeOnly); err != nil {
		return err
	}

	if err := dial.before(); err != nil {
		return err
	}
	if err := dial.op(); err != nil {
		return err
	}
	recvd := make(chan error, 1)
	go func(peer msgConn) {
		for {
			_, err := peer.Recv()
			recvd <- err
			if err != nil {
				return
			}
		}
	}(cb)
	for _, sz := range []struct {
		tag   string
		bytes int
	}{{"1k", 1 << 10}, {"256k", 256 << 10}, {"1m", 1 << 20}} {
		msg := bytes.Repeat([]byte{0xAB}, sz.bytes)
		st, err := p.timed(layer+".xfer_us_"+sz.tag, "us", call{op: func() error {
			if err := ca.Send(msg); err != nil {
				return err
			}
			return <-recvd
		}})
		if err != nil {
			return err
		}
		if sz.tag == "256k" {
			p.set(layer+".allocs_per_msg_256k", "count", st.allocs, len(st.ns))
			p.set(layer+".alloc_bytes_per_byte_256k", "B/B", st.allocBytes/float64(sz.bytes), len(st.ns))
		}
	}
	closeAll()
	<-recvd // the receiver's final error: it has exited
	return nil
}

func (p *probes) dtls() error {
	idA, err := dtls.NewIdentity()
	if err != nil {
		return err
	}
	idB, err := dtls.NewIdentity()
	if err != nil {
		return err
	}
	return p.handshakeAndTransfer("dtls", func(a, b net.Conn) (msgConn, msgConn, error) {
		type res struct {
			c   *dtls.Conn
			err error
		}
		srv := make(chan res, 1)
		go func() {
			c, err := dtls.Server(b, dtls.Config{Identity: idB, ExpectedPeerFingerprint: idA.Fingerprint()})
			srv <- res{c, err}
		}()
		ca, err := dtls.Client(a, dtls.Config{Identity: idA, ExpectedPeerFingerprint: idB.Fingerprint()})
		r := <-srv
		if err == nil {
			err = r.err
		}
		if err != nil {
			return nil, nil, err
		}
		return ca, r.c, nil
	})
}

func (p *probes) secure() error {
	ta, err := secure.NewTransportAuthority()
	if err != nil {
		return err
	}
	idA, err := secure.NewIdentity()
	if err != nil {
		return err
	}
	idB, err := secure.NewIdentity()
	if err != nil {
		return err
	}
	const swarm = "probe/360p"
	vA, err := ta.Vouch("a", swarm, idA.PublicKeyHex())
	if err != nil {
		return err
	}
	vB, err := ta.Vouch("b", swarm, idB.PublicKeyHex())
	if err != nil {
		return err
	}
	if err := p.handshakeAndTransfer("secure", func(a, b net.Conn) (msgConn, msgConn, error) {
		type res struct {
			c   *secure.Conn
			err error
		}
		srv := make(chan res, 1)
		go func() {
			c, err := secure.Server(b, secure.ChannelConfig{
				Identity: idB, PeerID: "b", SwarmID: swarm, Voucher: vB, AuthorityKey: ta.PublicKeyHex(),
			})
			srv <- res{c, err}
		}()
		ca, err := secure.Client(a, secure.ChannelConfig{
			Identity: idA, PeerID: "a", SwarmID: swarm, Voucher: vA,
			AuthorityKey: ta.PublicKeyHex(), ExpectedPeerKey: idB.PublicKeyHex(),
		})
		r := <-srv
		if err == nil {
			err = r.err
		}
		if err != nil {
			return nil, nil, err
		}
		return ca, r.c, nil
	}); err != nil {
		return err
	}

	if _, err := p.timed("secure.vouch_us", "us", call{op: func() error {
		_, err := ta.Vouch("a", swarm, idA.PublicKeyHex())
		return err
	}}); err != nil {
		return err
	}
	taPub, err := hex.DecodeString(ta.PublicKeyHex())
	if err != nil {
		return err
	}
	if _, err := p.timed("secure.verify_voucher_us", "us", call{op: func() error {
		if !secure.VerifyVoucher(ed25519.PublicKey(taPub), "a", swarm, idA.PublicKeyHex(), vA) {
			return fmt.Errorf("voucher rejected")
		}
		return nil
	}}); err != nil {
		return err
	}

	// An endless video, so every SIM call signs a segment it has not seen.
	video := analyzer.SmallVideo("probe", 1<<30, 256<<10)
	ms, err := secure.NewManifestService(video)
	if err != nil {
		return err
	}
	key := media.SegmentKey{Video: video.ID, Rendition: "360p"}
	var hash, sig string
	if _, err := p.timed("secure.manifest_sim_us", "us", call{op: func() error {
		key.Index++
		var ok bool
		if hash, sig, ok = ms.SIM(key); !ok {
			return fmt.Errorf("no SIM for %v", key)
		}
		return nil
	}}); err != nil {
		return err
	}
	msPub, err := hex.DecodeString(ms.ManifestPublicKeyHex())
	if err != nil {
		return err
	}
	_, err = p.timed("secure.verify_manifest_us", "us", call{op: func() error {
		if !secure.VerifyManifest(ed25519.PublicKey(msPub), key, hash, sig) {
			return fmt.Errorf("manifest rejected")
		}
		return nil
	}})
	return err
}

// wire: a ~200-byte envelope there and back over a netsim stream.
func (p *probes) wire() error {
	n := netsim.New(netsim.Config{})
	a, b, err := pair(n, 1)
	if err != nil {
		return err
	}
	ca, cb := wire.NewCodec(a), wire.NewCodec(b)
	defer ca.Close()
	echoDone := make(chan struct{})
	go func() {
		defer close(echoDone)
		for {
			e, err := cb.Read()
			if err != nil || cb.Write(e) != nil {
				return
			}
		}
	}()
	defer func() {
		cb.Close()
		<-echoDone
	}()
	payload := struct {
		Body string `json:"body"`
	}{strings.Repeat("x", 160)}
	st, err := p.timed("wire.roundtrip_us", "us", call{op: func() error {
		if err := ca.Send("probe", payload); err != nil {
			return err
		}
		_, err := ca.Read()
		return err
	}})
	if err != nil {
		return err
	}
	p.set("wire.allocs_per_msg", "count", st.allocs/2, len(st.ns)) // two messages per round trip
	return nil
}

func (p *probes) defense() error {
	const videoURL = "https://customer.com/v/probe/master.m3u8"
	ta := defense.NewTokenAuthority([]byte("probe-secret-probe-secret-probe!"))
	if _, err := p.timed("defense.jwt_sign_verify_us", "us", call{op: func() error {
		tok, err := ta.Issue(defense.PDNToken{
			CustomerID: "customer.com", PDNPeerID: "viewer-1",
			VideoIDs: []string{videoURL}, TTL: 60, UsageLimit: 1 << 30,
		})
		if err != nil {
			return err
		}
		return ta.Validate(tok, videoURL)
	}}); err != nil {
		return err
	}

	video := analyzer.SmallVideo("probe", 8, 256<<10)
	im, err := defense.NewIMChecker(defense.IMConfig{
		Reporters: 3,
		FetchCDN:  func(k media.SegmentKey) ([]byte, error) { return video.SegmentData(k.Rendition, k.Index) },
	})
	if err != nil {
		return err
	}
	key := media.SegmentKey{Video: video.ID, Rendition: "360p", Index: 0}
	data, err := video.SegmentData(key.Rendition, key.Index)
	if err != nil {
		return err
	}
	hash := media.IMHash(key, data)
	reporter := 0
	// The first three reports form the panel; the rest take the
	// established-SIM path, which is the steady state the median reads.
	if _, err := p.timed("defense.im_report_us", "us", call{op: func() error {
		reporter++
		return im.Report("p"+strconv.Itoa(reporter), key, hash)
	}}); err != nil {
		return err
	}
	var sig string
	if _, err := p.timed("defense.im_sim_us", "us", call{op: func() error {
		var ok bool
		if _, sig, ok = im.SIM(key); !ok {
			return fmt.Errorf("no SIM for %v", key)
		}
		return nil
	}}); err != nil {
		return err
	}
	_, err = p.timed("defense.verify_sim_us", "us", call{op: func() error {
		if !defense.VerifySIM(im.PublicKey(), key, hash, sig) {
			return fmt.Errorf("SIM rejected")
		}
		return nil
	}})
	return err
}

func (p *probes) mediaHLS() error {
	video := analyzer.SmallVideo("probe", 100, 256<<10)
	key := media.SegmentKey{Video: video.ID, Rendition: "360p", Index: 0}
	var data []byte
	if _, err := p.timed("media.segment_data_us_256k", "us", call{op: func() error {
		var err error
		data, err = video.SegmentData(key.Rendition, key.Index)
		return err
	}}); err != nil {
		return err
	}
	if _, err := p.timed("media.im_hash_us_256k", "us", call{op: func() error {
		media.IMHash(key, data)
		return nil
	}}); err != nil {
		return err
	}
	playlist := hls.Window(video, 0, 100).Encode()
	_, err := p.timed("hls.parse_playlist_us_100", "us", call{op: func() error {
		_, err := hls.ParseMediaPlaylist(playlist)
		return err
	}})
	return err
}

// cdn: one HTTP client over netsim fetching an edge-cached segment and
// the media playlist.
func (p *probes) cdn() error {
	n := netsim.New(netsim.Config{})
	hosts, err := newHosts(n, 1, 2)
	if err != nil {
		return err
	}
	video := analyzer.SmallVideo("probe", 100, 256<<10)
	srv := cdn.New()
	srv.Register(video)
	if err := srv.Serve(hosts[0], 80); err != nil {
		return err
	}
	defer srv.Close()
	base := "http://" + hosts[0].Addr().String() + ":80"
	tr := &http.Transport{DialContext: hosts[1].Dialer()}
	defer tr.CloseIdleConnections()
	client := &http.Client{Transport: tr}
	get := func(url string, want int) call {
		return call{op: func() error {
			req, err := http.NewRequestWithContext(p.ctx, http.MethodGet, url, nil)
			if err != nil {
				return err
			}
			resp, err := client.Do(req)
			if err != nil {
				return err
			}
			defer resp.Body.Close()
			body, err := io.ReadAll(resp.Body)
			if err == nil && (resp.StatusCode != http.StatusOK || (want > 0 && len(body) != want)) {
				err = fmt.Errorf("GET %s: status %d, %d bytes", url, resp.StatusCode, len(body))
			}
			return err
		}}
	}
	st, err := p.timed("cdn.segment_get_us_256k", "us", get(cdn.SegmentURL(base, video.ID, "360p", 0), 256<<10))
	if err != nil {
		return err
	}
	p.set("cdn.alloc_bytes_per_byte_256k", "B/B", st.allocBytes/float64(256<<10), len(st.ns))
	_, err = p.timed("cdn.playlist_get_us", "us", get(cdn.PlaylistURL(base, video.ID, "360p"), 0))
	return err
}

func (p *probes) netsim() error {
	n := netsim.New(netsim.Config{})

	// Stream: 256 KiB writes, timed until the reader has all of them.
	a, b, err := pair(n, 1)
	if err != nil {
		return err
	}
	const chunk = 256 << 10
	readDone := make(chan error, 1)
	go func() {
		buf := make([]byte, 64<<10)
		got := 0
		for {
			k, err := b.Read(buf)
			got += k
			for ; got >= chunk; got -= chunk {
				readDone <- nil
			}
			if err != nil {
				readDone <- err
				return
			}
		}
	}()
	msg := bytes.Repeat([]byte{0xCD}, chunk)
	st, err := p.loop("netsim.stream", call{op: func() error {
		if _, err := a.Write(msg); err != nil {
			return err
		}
		return <-readDone
	}})
	a.Close()
	b.Close()
	<-readDone // the reader's final error: it has exited
	if err != nil {
		return err
	}
	p.set("netsim.stream_mbps", "MB/s", chunk/1e6/(st.p50()/1e9), len(st.ns))
	p.set("netsim.stream_alloc_bytes_per_byte", "B/B", st.allocBytes/chunk, len(st.ns))

	// Dial: connect to a listener that accepts and closes.
	hosts, err := newHosts(n, 10, 2)
	if err != nil {
		return err
	}
	ln, err := hosts[0].Listen(9000)
	if err != nil {
		return err
	}
	acceptDone := make(chan struct{})
	go func() {
		defer close(acceptDone)
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			c.Close()
		}
	}()
	defer func() {
		ln.Close()
		<-acceptDone
	}()
	var dialed net.Conn
	if _, err := p.timed("netsim.dial_us", "us", call{
		op: func() error {
			var err error
			dialed, err = hosts[1].Dial(p.ctx, ln.AddrPort())
			return err
		},
		after: func() {
			if dialed != nil {
				dialed.Close()
				dialed = nil
			}
		},
	}); err != nil {
		return err
	}

	// Punch: both ends of a nominated pair rendezvous.
	addr := [2]netip.AddrPort{netip.AddrPortFrom(hosts[0].Addr(), 7000), netip.AddrPortFrom(hosts[1].Addr(), 7000)}
	var punched [2]net.Conn
	_, err = p.timed("netsim.punch_us", "us", call{
		op: func() error {
			peerErr := make(chan error, 1)
			go func() {
				c, err := n.Punch(p.ctx, hosts[1], addr[1], addr[0])
				if err == nil {
					punched[1] = c
				}
				peerErr <- err
			}()
			c, err := n.Punch(p.ctx, hosts[0], addr[0], addr[1])
			if err == nil {
				punched[0] = c
			}
			if perr := <-peerErr; err == nil {
				err = perr
			}
			return err
		},
		after: func() {
			for i, c := range punched {
				if c != nil {
					c.Close()
					punched[i] = nil
				}
			}
		},
	})
	return err
}
