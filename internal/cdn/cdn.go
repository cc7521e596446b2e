// Package cdn implements the HTTP video origin/edge the testbed streams
// from: a real net/http server running on the simulated network, serving
// HLS master/media playlists and media segments for registered videos,
// with per-video byte accounting.
//
// The paper's testbed used a Wowza origin behind Amazon CloudFront; the
// experiments only depend on the CDN being an ordinary HTTP endpoint
// that (a) peers fall back to, (b) bills the customer for every byte,
// and (c) an attacker's proxy can impersonate (the fake-CDN pollution
// attack redirects a peer's segment requests to a look-alike server).
// All three hold here.
package cdn

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"github.com/stealthy-peers/pdnsec/internal/hls"
	"github.com/stealthy-peers/pdnsec/internal/media"
	"github.com/stealthy-peers/pdnsec/internal/netsim"
	"github.com/stealthy-peers/pdnsec/internal/obs"
)

// LiveWindow is the number of segments a live media playlist exposes.
const LiveWindow = 6

// Server is a CDN node serving registered videos over HTTP.
type Server struct {
	mu      sync.Mutex
	videos  map[string]*media.Video
	started map[string]time.Time // live stream start times
	bytes   map[string]int64     // bytes served per video
	reqs    map[string]int64     // requests per video
	now     func() time.Time

	segCache segMemo

	reqsTotal  *obs.Counter
	bytesTotal *obs.Counter
	videoBytes *obs.CounterVec
	cacheHits  *obs.Counter
	cacheMiss  *obs.Counter
	tracer     *obs.Tracer

	httpSrv *http.Server
	srvWG   sync.WaitGroup
}

// New constructs an empty CDN server.
func New() *Server {
	s := &Server{
		videos:  make(map[string]*media.Video),
		started: make(map[string]time.Time),
		bytes:   make(map[string]int64),
		reqs:    make(map[string]int64),
		now:     time.Now,
	}
	return s
}

// Instrument registers the server's metrics in reg. Call before Serve;
// nil reg is a no-op (handles stay nil-safe).
func (s *Server) Instrument(reg *obs.Registry) {
	s.reqsTotal = reg.Counter("cdn_requests_total", "HTTP requests served by the CDN")
	s.bytesTotal = reg.Counter("cdn_bytes_total", "bytes served by the CDN (billed to the customer)")
	s.videoBytes = reg.CounterVec("cdn_video_bytes_total", "bytes served per video", "video")
	s.cacheHits = reg.Counter("cdn_cache_hits_total", "segment responses satisfied from the edge cache")
	s.cacheMiss = reg.Counter("cdn_cache_misses_total", "segments synthesized at the origin")
}

// SetTracer installs a tracer for segment serves. A client falling back
// to the CDN sends its segment span's context in the traceparent header;
// the CDN's cdn_segment_serve span continues it, so pdntrace shows the
// fallback hop inside the client's stitched segment trace. Nil is a
// no-op (untraced CDN).
func (s *Server) SetTracer(t *obs.Tracer) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.tracer = t
}

// Tracer returns the tracer installed with SetTracer (nil when untraced).
func (s *Server) Tracer() *obs.Tracer {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.tracer
}

// SetClock overrides the live-edge clock (tests).
func (s *Server) SetClock(now func() time.Time) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.now = now
}

// Register adds a video. Live assets start their clock at registration.
func (s *Server) Register(v *media.Video) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.videos[v.ID] = v
	if v.Live {
		s.started[v.ID] = s.now()
	}
}

// Video returns a registered video.
func (s *Server) Video(id string) (*media.Video, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	v, ok := s.videos[id]
	return v, ok
}

// BytesServed reports total bytes served for a video ("" sums all).
func (s *Server) BytesServed(videoID string) int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if videoID != "" {
		return s.bytes[videoID]
	}
	var total int64
	for _, b := range s.bytes {
		total += b
	}
	return total
}

// Requests reports the request count for a video ("" sums all).
func (s *Server) Requests(videoID string) int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if videoID != "" {
		return s.reqs[videoID]
	}
	var total int64
	for _, r := range s.reqs {
		total += r
	}
	return total
}

// liveEdge returns the newest available segment index for a live asset.
func (s *Server) liveEdge(v *media.Video) int {
	s.mu.Lock()
	start, ok := s.started[v.ID]
	now := s.now()
	s.mu.Unlock()
	if !ok {
		return 0
	}
	elapsed := now.Sub(start).Seconds()
	return int(elapsed / v.SegmentDuration)
}

// LiveEdge reports the newest available segment index for a registered
// live video — the reference point for live-edge lag measurements.
// Unknown or VOD assets report 0.
func (s *Server) LiveEdge(videoID string) int {
	v, ok := s.Video(videoID)
	if !ok || !v.Live {
		return 0
	}
	return s.liveEdge(v)
}

// Handler returns the http.Handler implementing the CDN URL layout:
//
//	/v/<videoID>/master.m3u8
//	/v/<videoID>/<rendition>/playlist.m3u8
//	/v/<videoID>/<rendition>/seg<NNNNN>.ts
func (s *Server) Handler() http.Handler {
	return http.HandlerFunc(s.serve)
}

func (s *Server) serve(w http.ResponseWriter, r *http.Request) {
	path := strings.TrimPrefix(r.URL.Path, "/")
	if !strings.HasPrefix(path, "v/") {
		http.NotFound(w, r)
		return
	}
	rest := strings.TrimPrefix(path, "v/")

	switch {
	case strings.HasSuffix(rest, "/master.m3u8"):
		videoID := strings.TrimSuffix(rest, "/master.m3u8")
		s.serveMaster(w, r, videoID)
	case strings.HasSuffix(rest, "/hashes.json"):
		base := strings.TrimSuffix(rest, "/hashes.json")
		i := strings.LastIndexByte(base, '/')
		if i < 0 {
			http.NotFound(w, r)
			return
		}
		s.serveHashes(w, r, base[:i], base[i+1:])
	case strings.HasSuffix(rest, "/playlist.m3u8"):
		base := strings.TrimSuffix(rest, "/playlist.m3u8")
		i := strings.LastIndexByte(base, '/')
		if i < 0 {
			http.NotFound(w, r)
			return
		}
		s.servePlaylist(w, r, base[:i], base[i+1:])
	case strings.HasSuffix(rest, ".ts"):
		i := strings.LastIndexByte(rest, '/')
		if i < 0 {
			http.NotFound(w, r)
			return
		}
		segURI := rest[i+1:]
		base := rest[:i]
		j := strings.LastIndexByte(base, '/')
		if j < 0 {
			http.NotFound(w, r)
			return
		}
		s.serveSegment(w, r, base[:j], base[j+1:], segURI)
	default:
		http.NotFound(w, r)
	}
}

func (s *Server) serveMaster(w http.ResponseWriter, r *http.Request, videoID string) {
	v, ok := s.Video(videoID)
	if !ok {
		http.NotFound(w, r)
		return
	}
	s.write(w, videoID, "application/vnd.apple.mpegurl", hls.ForVideo(v).Encode())
}

func (s *Server) servePlaylist(w http.ResponseWriter, r *http.Request, videoID, rendition string) {
	v, ok := s.Video(videoID)
	if !ok {
		http.NotFound(w, r)
		return
	}
	if _, ok := v.Rendition(rendition); !ok {
		http.NotFound(w, r)
		return
	}
	var pl *hls.MediaPlaylist
	if v.Live {
		edge := s.liveEdge(v)
		from := edge - LiveWindow + 1
		if from < 0 {
			from = 0
		}
		pl = hls.Window(v, from, edge-from+1)
	} else {
		pl = hls.Window(v, 0, v.Segments)
	}
	s.write(w, videoID, "application/vnd.apple.mpegurl", pl.Encode())
}

func (s *Server) serveSegment(w http.ResponseWriter, r *http.Request, videoID, rendition, segURI string) {
	span := s.Tracer().StartSpanRemote(r.Header.Get("traceparent"), "cdn_segment_serve",
		obs.A("video", videoID), obs.A("idx", segURI))
	idx, ok := hls.ParseSegmentURI(segURI)
	if !ok {
		http.NotFound(w, r)
		span.End(obs.A("ok", false))
		return
	}
	data, hit, err := s.segment(media.SegmentKey{Video: videoID, Rendition: rendition, Index: idx})
	if err != nil {
		http.NotFound(w, r)
		span.End(obs.A("ok", false))
		return
	}
	if hit {
		s.cacheHits.Inc()
	}
	s.write(w, videoID, "video/mp2t", data)
	span.End(obs.A("ok", true), obs.A("cache", hit), obs.A("bytes", len(data)))
}

// Segment returns a segment's bytes as the origin holds them: from the
// edge memo, or synthesized and stored there on a miss. It is the one
// ground-truth reader of segment bytes — the HTTP handlers serve and hash
// what it returns, and a provider's integrity service can sign it — so a
// segment is synthesized once, whoever asks first. The slice is shared:
// callers only read it. A read is not billed; only HTTP responses are.
func (s *Server) Segment(key media.SegmentKey) ([]byte, error) {
	data, _, err := s.segment(key)
	return data, err
}

// segment is Segment reporting whether the memo already held the bytes.
// Two first askers of one key may both synthesize it; the memo keeps one.
func (s *Server) segment(key media.SegmentKey) (data []byte, hit bool, err error) {
	if data, ok := s.segCache.get(key); ok {
		return data, true, nil
	}
	v, ok := s.Video(key.Video)
	if !ok {
		return nil, false, fmt.Errorf("cdn: no video %q", key.Video)
	}
	if data, err = v.SegmentData(key.Rendition, key.Index); err != nil {
		return nil, false, err
	}
	s.cacheMiss.Inc()
	s.segCache.put(key, data)
	return data, false, nil
}

// serveHashes implements the alternative integrity defense the paper's
// disclosure section describes (Viblast's MD5 segment hashing, Peer5's
// custom delivery): the CDN publishes a per-segment hash list that
// every viewer downloads. It works, but every viewer pays the extra
// CDN bytes — the §V-B cost argument against it, measurable through
// BytesServed.
func (s *Server) serveHashes(w http.ResponseWriter, r *http.Request, videoID, rendition string) {
	v, ok := s.Video(videoID)
	if !ok || v.Live {
		// Live assets would need rolling hash updates; the deployed
		// plugins the paper cites target VOD.
		http.NotFound(w, r)
		return
	}
	if _, ok := v.Rendition(rendition); !ok {
		http.NotFound(w, r)
		return
	}
	hashes := make(map[string]string, v.Segments)
	for i := 0; i < v.Segments; i++ {
		key := media.SegmentKey{Video: videoID, Rendition: rendition, Index: i}
		data, err := s.Segment(key)
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		hashes[key.String()] = media.IMHash(key, data)
	}
	body, err := json.Marshal(hashes)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	s.write(w, videoID, "application/json", body)
}

// write bills a response body to its video and sends it. The bill comes
// first: the viewer can hold the whole body before the send returns, and
// whoever reads BytesServed next must see it. No body is written once
// built (a memo segment, or a playlist or hash list made for this
// response), so it crosses the stream uncopied as a Shared.
func (s *Server) write(w http.ResponseWriter, videoID, contentType string, body []byte) {
	s.account(videoID, int64(len(body)))
	w.Header().Set("Content-Type", contentType)
	w.Header().Set("Content-Length", strconv.Itoa(len(body)))
	_, _ = io.Copy(w, netsim.NewShared(body)) // an error means the connection is gone
}

func (s *Server) account(videoID string, n int64) {
	s.mu.Lock()
	s.bytes[videoID] += n
	s.reqs[videoID]++
	s.mu.Unlock()
	s.reqsTotal.Inc()
	s.bytesTotal.Add(n)
	s.videoBytes.With(videoID).Add(n)
}

// Serve starts the CDN's HTTP server on a simulated host and port.
// It returns once the listener is accepting.
func (s *Server) Serve(host *netsim.Host, port uint16) error {
	l, err := host.Listen(port)
	if err != nil {
		return fmt.Errorf("cdn: listen: %w", err)
	}
	s.httpSrv = &http.Server{Handler: s.Handler()}
	s.srvWG.Add(1)
	go func() {
		defer s.srvWG.Done()
		// Serve exits with ErrServerClosed on Close; other errors mean
		// the simulated listener died, which only happens at teardown.
		_ = s.httpSrv.Serve(l)
	}()
	return nil
}

// Close stops the HTTP server and waits for its serve goroutine.
func (s *Server) Close() error {
	if s.httpSrv == nil {
		return nil
	}
	err := s.httpSrv.Close()
	s.srvWG.Wait()
	return err
}

// URLs for the canonical layout, relative to a base like
// "http://1.2.3.4:80".

// MasterURL returns the master playlist URL for a video.
func MasterURL(base, videoID string) string {
	return fmt.Sprintf("%s/v/%s/master.m3u8", base, videoID)
}

// PlaylistURL returns a rendition playlist URL.
func PlaylistURL(base, videoID, rendition string) string {
	return fmt.Sprintf("%s/v/%s/%s/playlist.m3u8", base, videoID, rendition)
}

// SegmentURL returns a segment URL.
func SegmentURL(base, videoID, rendition string, index int) string {
	return base + "/v/" + videoID + "/" + rendition + "/" + hls.SegmentURI(index)
}

// HashesURL returns the per-segment hash list URL (VOD only).
func HashesURL(base, videoID, rendition string) string {
	return fmt.Sprintf("%s/v/%s/%s/hashes.json", base, videoID, rendition)
}
