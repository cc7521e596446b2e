package pdnclient

import (
	"bufio"
	"bytes"
	"context"
	"io"
	"net"
	"net/http"
	"net/netip"
	"net/url"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/stealthy-peers/pdnsec/internal/media"
	"github.com/stealthy-peers/pdnsec/internal/netsim"
	"github.com/stealthy-peers/pdnsec/internal/obs"
	"github.com/stealthy-peers/pdnsec/internal/provider"
)

// connLog is an HTTP server on a simulated host that keeps the server's
// own view of its connections: how many it accepted, how many are
// still open, and the last one to go idle.
type connLog struct {
	opened atomic.Int64
	live   atomic.Int64
	closes chan struct{}
	idles  chan net.Conn
}

// serveLogged serves h on host's port 80 and returns the base URL.
func serveLogged(t *testing.T, host *netsim.Host, h http.Handler) (string, *connLog) {
	t.Helper()
	ln, err := host.Listen(80)
	if err != nil {
		t.Fatal(err)
	}
	cl := &connLog{closes: make(chan struct{}, 1024), idles: make(chan net.Conn, 1024)}
	srv := &http.Server{Handler: h, ConnState: func(c net.Conn, s http.ConnState) {
		switch s {
		case http.StateNew:
			cl.opened.Add(1)
			cl.live.Add(1)
		case http.StateIdle:
			cl.idles <- c
		case http.StateClosed, http.StateHijacked:
			cl.live.Add(-1)
			cl.closes <- struct{}{}
		}
	}}
	go srv.Serve(ln)
	t.Cleanup(func() { srv.Close() })
	return "http://" + ln.AddrPort().String(), cl
}

// waitClosed waits until the server holds no connection.
func (cl *connLog) waitClosed(t *testing.T) {
	t.Helper()
	for cl.live.Load() > 0 {
		select {
		case <-cl.closes:
		case <-time.After(2 * time.Second):
			t.Fatalf("the server still holds %d connections", cl.live.Load())
		}
	}
}

// readRequest answers one request on ln with a two-byte body and
// returns the request's bytes as they arrived.
func readRequest(ln net.Listener) <-chan []byte {
	out := make(chan []byte, 1)
	go func() {
		c, err := ln.Accept()
		if err != nil {
			out <- nil
			return
		}
		defer c.Close()
		var head []byte
		br := bufio.NewReader(c)
		for !bytes.HasSuffix(head, []byte("\r\n\r\n")) {
			line, err := br.ReadSlice('\n')
			if err != nil {
				out <- nil
				return
			}
			head = append(head, line...)
		}
		c.Write([]byte("HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nok"))
		out <- head
	}()
	return out
}

// TestCDNRequestBytes: a CDN GET puts on the wire exactly the bytes
// net/http's client writes for the same URL, traced or not, since a
// host's upload counts them.
func TestCDNRequestBytes(t *testing.T) {
	pa, pb := barePeers(t)
	ln, err := pb.cfg.Host.Listen(80)
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	const path = "/v/bbb/360p/seg_00007.ts"
	base := "http://" + ln.AddrPort().String()
	pa.cdn.origin, _ = url.Parse(base)
	tracer := obs.NewTracer(nil)
	traced, span := tracer.StartSpan(context.Background(), "cdn_fetch")
	defer span.End()
	stdlib := &http.Client{Transport: &http.Transport{DialContext: pa.cfg.Host.Dialer()}}
	defer stdlib.CloseIdleConnections()
	for _, tc := range []struct {
		name string
		ctx  context.Context
	}{{"untraced", context.Background()}, {"traced", traced}} {
		t.Run(tc.name, func(t *testing.T) {
			got := readRequest(ln)
			if _, err := pa.cdn.get(tc.ctx, path, nil); err != nil {
				t.Fatal(err)
			}
			mine := <-got
			pa.cdn.close()

			want := readRequest(ln)
			req, err := http.NewRequestWithContext(tc.ctx, http.MethodGet, base+path, nil)
			if err != nil {
				t.Fatal(err)
			}
			if tp := obs.ContextString(tc.ctx); tp != "" {
				req.Header.Set("traceparent", tp)
			}
			resp, err := stdlib.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			stdlib.CloseIdleConnections()
			if theirs := <-want; !bytes.Equal(mine, theirs) {
				t.Errorf("request bytes:\n%q\nnet/http writes:\n%q", mine, theirs)
			}
		})
	}
}

// TestCDNConnLifecycle: one connection serves a viewer's GETs for as
// long as the CDN keeps it; an idle connection the CDN closed, or a
// request it dropped unanswered, costs one fresh dial and one resend,
// and a failure once the response has begun, in its head or its body,
// is never retried. A
// response the connection cannot continue past (an unread error body, a
// content encoding) ends it; one read to its end, chunked, of declared
// length or empty, does not. TestHTTPGetIsBounded drops it after a body
// over maxHTTPBody.
func TestCDNConnLifecycle(t *testing.T) {
	pa, pb := barePeers(t)
	body := bytes.Repeat([]byte("segment!"), 8<<10)
	var calls sync.Map // path → *atomic.Int64
	count := func(r *http.Request) int64 {
		n, _ := calls.LoadOrStore(r.URL.Path, new(atomic.Int64))
		return n.(*atomic.Int64).Add(1)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/declared", func(w http.ResponseWriter, r *http.Request) {
		count(r)
		w.Header().Set("Content-Length", strconv.Itoa(len(body)))
		w.Write(body)
	})
	mux.HandleFunc("/chunked", func(w http.ResponseWriter, r *http.Request) {
		count(r)
		w.(http.Flusher).Flush()
		w.Write(body)
	})
	mux.HandleFunc("/unanswered-once", func(w http.ResponseWriter, r *http.Request) {
		if count(r) == 1 {
			panic(http.ErrAbortHandler) // the server closes the connection, nothing written
		}
		w.Write(body)
	})
	mux.HandleFunc("/broken", func(w http.ResponseWriter, r *http.Request) {
		count(r)
		w.Header().Set("Content-Length", strconv.Itoa(len(body)))
		w.Write(body[:len(body)/2])
		w.(http.Flusher).Flush()
		panic(http.ErrAbortHandler)
	})
	mux.HandleFunc("/broken-head", func(w http.ResponseWriter, r *http.Request) {
		count(r)
		c, _, err := w.(http.Hijacker).Hijack()
		if err != nil {
			return
		}
		c.Write([]byte("HTTP/1.1 200 OK\r\n"))
		c.Close()
	})
	mux.HandleFunc("/missing", func(w http.ResponseWriter, r *http.Request) {
		count(r)
		http.NotFound(w, r)
	})
	mux.HandleFunc("/empty-status", func(w http.ResponseWriter, r *http.Request) {
		count(r)
		w.WriteHeader(http.StatusNoContent)
	})
	mux.HandleFunc("/gzip", func(w http.ResponseWriter, r *http.Request) {
		count(r)
		w.Header().Set("Content-Encoding", "gzip")
		w.Write(body)
	})
	base, cl := serveLogged(t, pb.cfg.Host, mux)
	pa.cdn.origin, _ = url.Parse(base)
	ctx := context.Background()
	get := func(path string) ([]byte, error) { return pa.cdn.get(ctx, path, nil) }
	ok := func(path string) {
		t.Helper()
		if got, err := get(path); err != nil || !bytes.Equal(got, body) {
			t.Fatalf("%s: %d bytes, %v; want the %d-byte body", path, len(got), err, len(body))
		}
	}
	fails := func(path, want string) {
		t.Helper()
		if got, err := get(path); err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("%s: %d bytes, %v; want an error naming %q", path, len(got), err, want)
		}
	}
	dials := func(when string, want int64) {
		t.Helper()
		if n := cl.opened.Load(); n != want {
			t.Fatalf("%s: the CDN accepted %d connections, want %d", when, n, want)
		}
	}
	handled := func(path string, want int64) {
		t.Helper()
		n, _ := calls.LoadOrStore(path, new(atomic.Int64))
		if got := n.(*atomic.Int64).Load(); got != want {
			t.Fatalf("%s handled %d times, want %d", path, got, want)
		}
	}

	ok("/declared")
	ok("/chunked")
	ok("/declared")
	fails("/empty-status", "status 204")
	ok("/declared")
	dials("after GETs read to their end", 1)

	(<-cl.idles).Close() // the CDN times the idle connection out
	ok("/declared")
	dials("after the CDN closed the idle connection", 2)
	handled("/declared", 4)

	ok("/unanswered-once")
	dials("after a request dropped unanswered", 3)
	handled("/unanswered-once", 2)

	fails("/broken", "unexpected EOF")
	handled("/broken", 1)
	dials("after a body broke off", 3)
	ok("/declared")
	fails("/broken-head", "unexpected EOF")
	handled("/broken-head", 1)
	dials("after a response head broke off", 4)

	for _, tc := range []struct{ path, err string }{
		{"/missing", "status 404"},
		{"/gzip", `Content-Encoding "gzip"`},
	} {
		ok("/declared")
		before := cl.opened.Load()
		fails(tc.path, tc.err)
		handled(tc.path, 1)
		ok("/declared")
		dials("after "+tc.path, before+1)
	}
}

// TestCDNBaseNotAnOrigin: New parses CDNBase once. One that is no
// http origin — empty, of another scheme, or carrying a path — fails
// each GET before any dial, and not New.
func TestCDNBaseNotAnOrigin(t *testing.T) {
	pa, pb := barePeers(t)
	ln, err := pb.cfg.Host.Listen(80)
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	origin := ln.AddrPort().String()
	for _, base := range []string{"http://" + origin, "", "https://" + origin, "http://" + origin + "/cdn", "http://%zz"} {
		cfg := pa.cfg
		cfg.CDNBase = base
		p, err := New(cfg)
		if err != nil {
			t.Fatalf("New with CDNBase %q: %v", base, err)
		}
		valid := base == "http://"+origin
		for range 2 {
			if valid {
				readRequest(ln)
			}
			if _, err := p.cdn.get(context.Background(), "/v/bbb/master.m3u8", nil); (err == nil) != valid {
				t.Errorf("GET on CDNBase %q: %v", base, err)
			}
			if !valid && p.cdn.conn != nil {
				t.Errorf("CDNBase %q dialled a connection", base)
			}
			p.cdn.close()
		}
	}
}

// TestCDNConnCancel: cancelling Run while the CDN has sent a segment's
// headers and stalls mid-body ends Run at once, not after cdnTimeout.
func TestCDNConnCancel(t *testing.T) {
	tb := newTestbed(t, provider.Peer5(), smallVideo("bbb", 4))
	stalled := make(chan struct{}, 1)
	origin := tb.cdnSrv.Handler()
	base, cl := serveLogged(t, tb.net.MustHost(netip.MustParseAddr("93.184.216.35")),
		http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if !strings.HasSuffix(r.URL.Path, ".ts") {
				origin.ServeHTTP(w, r)
				return
			}
			w.Header().Set("Content-Length", "1000")
			w.Write(make([]byte, 10))
			w.(http.Flusher).Flush()
			stalled <- struct{}{}
			<-r.Context().Done()
		}))
	cfg := tb.peerConfig(t)
	cfg.CDNBase = base
	cfg.DisableP2P = true
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() {
		_, err := p.Run(ctx)
		done <- err
	}()
	select {
	case <-stalled:
	case <-time.After(5 * time.Second):
		t.Fatal("the viewer never asked for a segment")
	}
	cancelled := time.Now()
	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		if elapsed := time.Since(cancelled); elapsed >= time.Second {
			t.Fatalf("Run returned %v after its context was cancelled", elapsed)
		}
	case <-time.After(cdnTimeout):
		t.Fatal("Run sat out the stalled body")
	}
	cl.waitClosed(t)
}

// TestPlainViewerHoldsOneCDNConn: a viewer that plays a whole VOD from
// the CDN — playlist, master playlist and every segment — opens one
// connection for all of it, and leaves none behind.
func TestPlainViewerHoldsOneCDNConn(t *testing.T) {
	tb := newTestbed(t, provider.Peer5(), smallVideo("bbb", 12))
	base, cl := serveLogged(t, tb.net.MustHost(netip.MustParseAddr("93.184.216.35")), tb.cdnSrv.Handler())
	cfg := tb.peerConfig(t)
	cfg.CDNBase = base
	cfg.DisableP2P = true
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	st, err := p.Run(ctx)
	if err != nil || st.FromCDN != 12 {
		t.Fatalf("%+v, %v; want 12 segments from the CDN", st, err)
	}
	if n := cl.opened.Load(); n != 1 {
		t.Errorf("the viewer opened %d CDN connections, want 1", n)
	}
	cl.waitClosed(t)
}

// TestLingeringSeederHoldsNoCDNConn: a seeder's CDN connection closes
// when its playback ends, so while it lingers serving peers the CDN
// holds no connection (and no conn goroutine) for it.
func TestLingeringSeederHoldsNoCDNConn(t *testing.T) {
	tb := newTestbed(t, provider.Peer5(), smallVideo("bbb", 6))
	base, cl := serveLogged(t, tb.net.MustHost(netip.MustParseAddr("93.184.216.35")), tb.cdnSrv.Handler())
	cfg := tb.peerConfig(t)
	cfg.CDNBase = base
	cfg.MaxSegments = 6
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	p, stop, err := Seed(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer stop()
	if cl.opened.Load() == 0 {
		t.Fatal("the seeder never reached the CDN")
	}
	cl.waitClosed(t)
	select {
	case <-p.closed:
		t.Fatal("the seeder stopped lingering")
	default:
	}
}

// TestCDNGetAllocBudget: a plain viewer's steady-state segment GET —
// request, response, body into the buffer the segment before it played
// from, and the CDN's own handling of it over the simulated network —
// allocates a bounded handful. Counted over 2 vCPUs with go1.24 it is
// ≈ 43, net/http's server about half of it; 90 meant the client's
// Transport (its connection's read and write loops, Client's redirect
// loop, the per-request timeout context) was back.
func TestCDNGetAllocBudget(t *testing.T) {
	if RaceEnabled {
		t.Skip("counted without the race detector, whose bookkeeping allocates")
	}
	const segments, budget = 64, 55
	video := &media.Video{
		ID:              "bbb",
		Renditions:      []media.Rendition{{Name: "360p", Bandwidth: playBufSegBytes * 8 / 10, SegmentBytes: playBufSegBytes}},
		Segments:        segments,
		SegmentDuration: 10,
	}
	tb := newTestbed(t, provider.Peer5(), video)
	for i := 0; i < segments; i++ {
		if _, err := tb.cdnSrv.Segment(media.SegmentKey{Video: video.ID, Rendition: "360p", Index: i}); err != nil {
			t.Fatal(err)
		}
	}
	cfg := tb.peerConfig(t)
	cfg.DisableP2P = true
	var (
		first, last runtime.MemStats
		calls       int
	)
	cfg.OnSegment = func(media.SegmentKey, []byte, string) {
		// The first segment pays for the connection; counting starts
		// behind it.
		calls++
		if calls == 1 {
			runtime.ReadMemStats(&first)
		} else {
			runtime.ReadMemStats(&last)
		}
	}
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if st, err := p.Run(ctx); err != nil || st.FromCDN != segments {
		t.Fatalf("%+v, %v; want %d segments from the CDN", st, err, segments)
	}
	perGet := float64(last.Mallocs-first.Mallocs) / float64(calls-1)
	t.Logf("%.2f allocations per CDN segment GET over %d segments", perGet, calls-1)
	if perGet > budget {
		t.Errorf("a CDN segment GET allocates %.2f times, want at most %d", perGet, budget)
	}
}
