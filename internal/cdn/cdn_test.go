package cdn

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/netip"
	"runtime"
	"testing"
	"time"

	"github.com/stealthy-peers/pdnsec/internal/hls"
	"github.com/stealthy-peers/pdnsec/internal/media"
	"github.com/stealthy-peers/pdnsec/internal/netsim"
	"github.com/stealthy-peers/pdnsec/internal/obs"
)

// fixture starts a CDN on a simulated network and returns an HTTP
// client dialing from a viewer host.
type fixture struct {
	srv    *Server
	reg    *obs.Registry
	net    *netsim.Network
	base   string
	client *http.Client
}

// cdnAddr is the fixture CDN's host address.
var cdnAddr = netip.MustParseAddr("93.184.216.34")

func newFixture(t *testing.T) *fixture {
	t.Helper()
	n := netsim.New(netsim.Config{})
	cdnHost := n.MustHost(cdnAddr)
	viewer := n.MustHost(netip.MustParseAddr("66.24.0.5"))

	s := New()
	reg := obs.NewRegistry()
	s.Instrument(reg)
	if err := s.Serve(cdnHost, 80); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return &fixture{
		srv:  s,
		reg:  reg,
		net:  n,
		base: "http://93.184.216.34:80",
		client: &http.Client{
			Transport: &http.Transport{DialContext: viewer.Dialer()},
			Timeout:   5 * time.Second,
		},
	}
}

func (f *fixture) get(t *testing.T, url string) (int, []byte) {
	t.Helper()
	resp, err := f.client.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, body
}

// misses reads cdn_cache_misses_total: segments synthesized at the origin.
func (f *fixture) misses() int64 {
	return f.reg.Counter("cdn_cache_misses_total", "").Value()
}

func smallVOD(id string, segments int) *media.Video {
	return &media.Video{
		ID:              id,
		Renditions:      []media.Rendition{{Name: "360p", Bandwidth: 800_000, SegmentBytes: 4096}},
		Segments:        segments,
		SegmentDuration: 10,
	}
}

func TestMasterPlaylist(t *testing.T) {
	f := newFixture(t)
	f.srv.Register(media.NewVOD("bbb", 4))
	code, body := f.get(t, MasterURL(f.base, "bbb"))
	if code != 200 {
		t.Fatalf("status %d", code)
	}
	mp, err := hls.ParseMasterPlaylist(body)
	if err != nil {
		t.Fatal(err)
	}
	if len(mp.Variants) != 3 {
		t.Fatalf("variants %+v", mp.Variants)
	}
}

func TestVODPlaylistAndSegments(t *testing.T) {
	f := newFixture(t)
	v := smallVOD("bbb", 3)
	f.srv.Register(v)
	code, body := f.get(t, PlaylistURL(f.base, "bbb", "360p"))
	if code != 200 {
		t.Fatalf("status %d", code)
	}
	pl, err := hls.ParseMediaPlaylist(body)
	if err != nil {
		t.Fatal(err)
	}
	if len(pl.Segments) != 3 || pl.Live {
		t.Fatalf("playlist %+v", pl)
	}
	for i := 0; i < 3; i++ {
		code, seg := f.get(t, SegmentURL(f.base, "bbb", "360p", i))
		if code != 200 {
			t.Fatalf("segment %d status %d", i, code)
		}
		if !v.Verify("360p", i, seg) {
			t.Fatalf("segment %d failed verification", i)
		}
	}
}

func TestNotFoundCases(t *testing.T) {
	f := newFixture(t)
	f.srv.Register(smallVOD("bbb", 2))
	cases := []string{
		f.base + "/nope",
		MasterURL(f.base, "missing"),
		PlaylistURL(f.base, "bbb", "999p"),
		PlaylistURL(f.base, "missing", "360p"),
		SegmentURL(f.base, "bbb", "360p", 99),
		SegmentURL(f.base, "missing", "360p", 0),
		f.base + "/v/bbb/360p/garbage.ts",
		f.base + "/v/playlist.m3u8",
		f.base + "/v/x.ts",
	}
	for _, url := range cases {
		if code, _ := f.get(t, url); code != 404 {
			t.Errorf("GET %s = %d, want 404", url, code)
		}
	}
}

func TestLivePlaylistSlides(t *testing.T) {
	f := newFixture(t)
	now := time.Unix(10_000, 0)
	f.srv.SetClock(func() time.Time { return now })
	v := media.NewLive("ch1", 100)
	v.Renditions = []media.Rendition{{Name: "360p", Bandwidth: 800_000, SegmentBytes: 2048}}
	f.srv.Register(v)

	// At t=0 the edge is segment 0.
	_, body := f.get(t, PlaylistURL(f.base, "ch1", "360p"))
	pl, err := hls.ParseMediaPlaylist(body)
	if err != nil {
		t.Fatal(err)
	}
	if !pl.Live || pl.MediaSequence != 0 || len(pl.Segments) != 1 {
		t.Fatalf("initial live playlist %+v", pl)
	}

	// After 75s (7.5 segments at 10s), the edge is 7, window [2..7].
	now = now.Add(75 * time.Second)
	_, body = f.get(t, PlaylistURL(f.base, "ch1", "360p"))
	pl, err = hls.ParseMediaPlaylist(body)
	if err != nil {
		t.Fatal(err)
	}
	if pl.MediaSequence != 2 || len(pl.Segments) != LiveWindow {
		t.Fatalf("slid playlist seq=%d n=%d", pl.MediaSequence, len(pl.Segments))
	}
	if pl.Segments[len(pl.Segments)-1].URI != hls.SegmentURI(7) {
		t.Fatalf("edge segment %q", pl.Segments[len(pl.Segments)-1].URI)
	}
}

func TestByteAccounting(t *testing.T) {
	f := newFixture(t)
	v := smallVOD("bbb", 2)
	f.srv.Register(v)
	if f.srv.BytesServed("bbb") != 0 {
		t.Fatal("fresh video should have zero bytes")
	}
	_, seg := f.get(t, SegmentURL(f.base, "bbb", "360p", 0))
	if got := f.srv.BytesServed("bbb"); got != int64(len(seg)) {
		t.Fatalf("BytesServed = %d, want %d", got, len(seg))
	}
	if f.srv.Requests("bbb") != 1 {
		t.Fatalf("Requests = %d", f.srv.Requests("bbb"))
	}
	// Totals roll up.
	if f.srv.BytesServed("") != int64(len(seg)) || f.srv.Requests("") != 1 {
		t.Fatal("rollup mismatch")
	}
}

func TestConcurrentFetches(t *testing.T) {
	f := newFixture(t)
	v := smallVOD("bbb", 8)
	f.srv.Register(v)
	errc := make(chan error, 8)
	for i := 0; i < 8; i++ {
		go func(i int) {
			resp, err := f.client.Get(SegmentURL(f.base, "bbb", "360p", i))
			if err != nil {
				errc <- err
				return
			}
			defer resp.Body.Close()
			body, err := io.ReadAll(resp.Body)
			if err == nil && !v.Verify("360p", i, body) {
				err = fmt.Errorf("segment %d corrupt", i)
			}
			errc <- err
		}(i)
	}
	for i := 0; i < 8; i++ {
		if err := <-errc; err != nil {
			t.Fatal(err)
		}
	}
	if f.srv.Requests("bbb") != 8 {
		t.Fatalf("requests %d", f.srv.Requests("bbb"))
	}
}

func TestURLHelpers(t *testing.T) {
	if got := MasterURL("http://h:1", "a/b"); got != "http://h:1/v/a/b/master.m3u8" {
		t.Fatalf("MasterURL %q", got)
	}
	if got := PlaylistURL("http://h:1", "a", "720p"); got != "http://h:1/v/a/720p/playlist.m3u8" {
		t.Fatalf("PlaylistURL %q", got)
	}
	if got := SegmentURL("http://h:1", "a", "720p", 3); got != "http://h:1/v/a/720p/seg00003.ts" {
		t.Fatalf("SegmentURL %q", got)
	}
}

// TestHashListFromOrigin: hashes.json hashes the bytes the origin holds.
// Its body is what every hash-manifest viewer downloads (the §V-B cost
// the defense-cost experiment bills), so it is pinned byte for byte; a
// list asked for after the segments were served synthesizes none again.
func TestHashListFromOrigin(t *testing.T) {
	f := newFixture(t)
	f.srv.Register(smallVOD("bbb", 3))
	for i := 0; i < 3; i++ {
		if code, _ := f.get(t, SegmentURL(f.base, "bbb", "360p", i)); code != 200 {
			t.Fatalf("segment %d status %d", i, code)
		}
	}
	if got := f.misses(); got != 3 {
		t.Fatalf("%d misses after serving 3 segments", got)
	}
	code, body := f.get(t, HashesURL(f.base, "bbb", "360p"))
	const want = `{"bbb/360p/0":"c82a793764b8c028b90a3c77ecc26226da0d613df50596752d77949d15c60a55",` +
		`"bbb/360p/1":"c334cb56e70fabf1faec0b379f513d851e0f8f988d427ca7a87aaeed5f27d842",` +
		`"bbb/360p/2":"3cc61ee20e1679bdbce8464b9981760a37b3223a4339fea28b1720b04a22c878"}`
	if code != 200 || string(body) != want {
		t.Fatalf("hashes.json = %d %s, want %s", code, body, want)
	}
	if got := f.misses(); got != 3 {
		t.Fatalf("hashes.json after the segments were served: %d misses, want 3", got)
	}
}

// TestOriginSegmentShared: Segment and the HTTP handler read one memo,
// concurrently, and both hand out the ground-truth bytes; once a key is
// held, neither synthesizes it again. What the origin does not hold is
// an error that synthesizes nothing.
func TestOriginSegmentShared(t *testing.T) {
	f := newFixture(t)
	v := smallVOD("bbb", 8)
	f.srv.Register(v)
	errc := make(chan error, 2*v.Segments)
	for i := 0; i < v.Segments; i++ {
		go func(i int) {
			resp, err := f.client.Get(SegmentURL(f.base, "bbb", "360p", i))
			if err != nil {
				errc <- err
				return
			}
			defer resp.Body.Close()
			body, err := io.ReadAll(resp.Body)
			if err == nil && !v.Verify("360p", i, body) {
				err = fmt.Errorf("GET of segment %d corrupt", i)
			}
			errc <- err
		}(i)
		go func(i int) {
			data, err := f.srv.Segment(media.SegmentKey{Video: "bbb", Rendition: "360p", Index: i})
			if err == nil && !v.Verify("360p", i, data) {
				err = fmt.Errorf("Segment(%d) corrupt", i)
			}
			errc <- err
		}(i)
	}
	for i := 0; i < 2*v.Segments; i++ {
		if err := <-errc; err != nil {
			t.Fatal(err)
		}
	}
	held := f.misses()
	for i := 0; i < v.Segments; i++ {
		if _, err := f.srv.Segment(media.SegmentKey{Video: "bbb", Rendition: "360p", Index: i}); err != nil {
			t.Fatal(err)
		}
		f.get(t, SegmentURL(f.base, "bbb", "360p", i))
	}
	for _, absent := range []media.SegmentKey{
		{Video: "bbb", Rendition: "360p", Index: 8},
		{Video: "bbb", Rendition: "999p", Index: 0},
		{Video: "other", Rendition: "360p", Index: 0},
	} {
		if _, err := f.srv.Segment(absent); err == nil {
			t.Errorf("Segment(%v) served bytes the origin does not hold", absent)
		}
	}
	if got := f.misses(); got != held {
		t.Fatalf("held segments and absent keys synthesized %d more", got-held)
	}
}

// TestSegmentGetAllocBudget: a memoized segment crosses the simulated
// network uncopied (netsim.Shared), so a GET read into a buffer of the
// declared length costs that buffer and little else. The shared memo
// slice is never written on the way: a corrupting link flips a copy,
// and the origin still holds the ground truth afterwards.
func TestSegmentGetAllocBudget(t *testing.T) {
	const size = 256 << 10
	f := newFixture(t)
	v := &media.Video{
		ID:              "bbb",
		Renditions:      []media.Rendition{{Name: "360p", Bandwidth: 800_000, SegmentBytes: size}},
		Segments:        1,
		SegmentDuration: 10,
	}
	f.srv.Register(v)
	key := media.SegmentKey{Video: "bbb", Rendition: "360p", Index: 0}
	held, err := f.srv.Segment(key)
	if err != nil {
		t.Fatal(err)
	}
	url := SegmentURL(f.base, "bbb", "360p", 0)
	get := func(ctx context.Context) ([]byte, error) {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
		if err != nil {
			return nil, err
		}
		resp, err := f.client.Do(req)
		if err != nil {
			return nil, err
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK || resp.ContentLength < 0 {
			return nil, fmt.Errorf("GET: status %d, length %d", resp.StatusCode, resp.ContentLength)
		}
		body := make([]byte, resp.ContentLength)
		_, err = io.ReadFull(resp.Body, body)
		return body, err
	}
	if _, err := get(context.Background()); err != nil { // dial outside the count
		t.Fatal(err)
	}

	const rounds = 8
	bodies := make([][]byte, rounds)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := range bodies {
		if bodies[i], err = get(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	limit := 1.1
	if raceEnabled {
		limit = 1.5 // a dropped 32 KiB copy buffer is 0.125 B/B; a second body copy is 1
	}
	if got := float64(after.TotalAlloc-before.TotalAlloc) / (rounds * size); got >= limit {
		t.Errorf("a segment GET allocates %.3f B per payload byte, want < %.1f (the reader's buffer)", got, limit)
	}
	for i, body := range bodies {
		if !bytes.Equal(body, held) {
			t.Fatalf("GET %d: body differs from Segment(key)", i)
		}
	}

	// Every chunk the CDN sends now has bytes flipped; a garbled header
	// may fail the request, which is fine.
	f.net.CorruptStreams(cdnAddr, 1, false)
	flipped := false
	for i := 0; i < rounds; i++ {
		ctx, cancel := context.WithTimeout(context.Background(), 500*time.Millisecond)
		body, err := get(ctx)
		cancel()
		flipped = flipped || (err == nil && !bytes.Equal(body, held))
	}
	f.net.ClearCorrupt(cdnAddr)
	if !flipped {
		t.Fatal("the corruption rule flipped no body byte")
	}
	want, err := v.SegmentData("360p", 0)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := f.srv.Segment(key); err != nil || !bytes.Equal(got, want) {
		t.Fatalf("Segment(key) after a corrupting link: %v; the origin memo was written", err)
	}
}
