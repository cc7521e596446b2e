package pdnclient

import (
	"context"
	"net/netip"
	"runtime"
	"testing"
	"time"

	"github.com/stealthy-peers/pdnsec/internal/media"
	"github.com/stealthy-peers/pdnsec/internal/provider"
)

const (
	playBufSegBytes = 256 << 10
	playBufSegments = 2 * 8 // 2 × the default CacheSegments
)

// newPlayBufTestbed serves a VOD of playBufSegments deployed-size
// segments, already held by the CDN's memo when it returns, so a
// viewer's GETs synthesize nothing.
func newPlayBufTestbed(t *testing.T) *testbed {
	t.Helper()
	video := &media.Video{
		ID:              "bbb",
		Renditions:      []media.Rendition{{Name: "360p", Bandwidth: playBufSegBytes * 8 / 10, SegmentBytes: playBufSegBytes}},
		Segments:        playBufSegments,
		SegmentDuration: 10,
	}
	tb := newTestbed(t, provider.Peer5(), video)
	for i := 0; i < video.Segments; i++ {
		if _, err := tb.cdnSrv.Segment(media.SegmentKey{Video: video.ID, Rendition: "360p", Index: i}); err != nil {
			t.Fatal(err)
		}
	}
	return tb
}

// TestPlainViewerPlaysFromOneBuffer: a viewer that caches nothing — set
// up without P2P, or degraded to plain playback when its join failed —
// reads every segment into the one buffer the previous segment played
// from. Each OnSegment call sees the authentic bytes for as long as it
// runs, every call borrows the same backing array, and past the first
// segment a played byte costs under 0.1 allocated bytes (a fresh body
// per segment is 1).
func TestPlainViewerPlaysFromOneBuffer(t *testing.T) {
	for _, tc := range []struct {
		name  string
		setup func(*Config)
	}{
		{"DisableP2P", func(cfg *Config) { cfg.DisableP2P = true }},
		{"GracefulDegrade", func(cfg *Config) {
			cfg.SignalAddrs = []netip.AddrPort{netip.MustParseAddrPort("10.66.66.66:443")} // blackholed
			cfg.GracefulDegrade = true
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tb := newPlayBufTestbed(t)
			cfg := tb.peerConfig(t)
			tc.setup(&cfg)
			// OnSegment runs on the playback goroutine, which Run waits
			// for. The allocation count runs from one call's return to the
			// next call, so Verify's own regeneration of the segment is
			// not counted against the viewer.
			var (
				backing        *byte
				calls          int
				entry, exit    runtime.MemStats
				allocated      uint64
				shared, intact = true, true
			)
			cfg.OnSegment = func(k media.SegmentKey, data []byte, source string) {
				runtime.ReadMemStats(&entry)
				if calls == 0 {
					backing = &data[0]
				} else {
					allocated += entry.TotalAlloc - exit.TotalAlloc
					shared = shared && &data[0] == backing
				}
				calls++
				intact = intact && tb.video.Verify(k.Rendition, k.Index, data)
				runtime.ReadMemStats(&exit)
			}
			p, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			st, err := p.Run(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if st.SegmentsPlayed != playBufSegments || st.FromCDN != playBufSegments || calls != playBufSegments {
				t.Fatalf("played %d segments (%+v), want %d from the CDN", calls, st, playBufSegments)
			}
			if !intact {
				t.Error("an OnSegment call saw bytes that are not the segment's")
			}
			if !shared {
				t.Error("OnSegment calls saw more than one backing array: a buffer per segment")
			}
			if cached := p.CachedIndices(); len(cached) != 0 {
				t.Errorf("a plain viewer cached segments %v", cached)
			}
			limit := 0.1
			if RaceEnabled {
				limit = 0.5 // net/http's pooled buffers are dropped at random under -race
			}
			played := float64((playBufSegments - 1) * playBufSegBytes)
			if got := float64(allocated) / played; got >= limit {
				t.Errorf("a played byte allocates %.3f B, want < %.1f", got, limit)
			}
		})
	}
}

// TestCachingViewerOwnsEveryBuffer: a viewer that caches what it plays
// keeps a buffer per segment, so no later CDN fetch is read into a
// buffer the cache still serves from. Every OnSegment call re-verifies
// each cache entry, and so does the end of the run.
func TestCachingViewerOwnsEveryBuffer(t *testing.T) {
	tb := newPlayBufTestbed(t)
	cfg := tb.peerConfig(t)
	var p *Peer
	audit := func(when string) {
		for _, idx := range p.CachedIndices() {
			data, ok := p.CachedSegment(idx)
			if !ok || !tb.video.Verify("360p", idx, data) {
				t.Errorf("%s: cache entry %d no longer holds the segment", when, idx)
			}
		}
	}
	cfg.OnSegment = func(k media.SegmentKey, _ []byte, _ string) { audit("after segment " + k.String()) }
	var err error
	if p, err = New(cfg); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	st, err := p.Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.SegmentsPlayed != playBufSegments || st.FromCDN != playBufSegments {
		t.Fatalf("stats %+v, want %d segments from the CDN", st, playBufSegments)
	}
	if n := len(p.CachedIndices()); n != 8 {
		t.Fatalf("%d cache entries, want a full cache of 8", n)
	}
	audit("after the run")
}

// TestPlainViewersLeaveNothingBehind: a viewer closes its CDN
// connection when its playback ends, so twenty viewers played one after
// another leave the goroutine count where it was — not the CDN server's
// conn goroutine each until the CDN closes. The viewer's own side of the
// connection runs no goroutine.
func TestPlainViewersLeaveNothingBehind(t *testing.T) {
	tb := newTestbed(t, provider.Peer5(), smallVideo("bbb", 4))
	settle := func(baseline int) bool {
		for deadline := time.Now().Add(time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
			if runtime.NumGoroutine() <= baseline {
				return true
			}
		}
		return false
	}
	baseline := runtime.NumGoroutine()
	for i := 0; i < 20; i++ {
		cfg := tb.peerConfig(t)
		cfg.DisableP2P = true
		p, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
		st, err := p.Run(ctx)
		cancel()
		if err != nil || st.SegmentsPlayed != 4 {
			t.Fatalf("viewer %d: %+v, %v", i, st, err)
		}
	}
	if !settle(baseline) {
		buf := make([]byte, 1<<16)
		t.Fatalf("%d goroutines left after 20 viewers left:\n%s", runtime.NumGoroutine()-baseline, buf[:runtime.Stack(buf, true)])
	}
}
