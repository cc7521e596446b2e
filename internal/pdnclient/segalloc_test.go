package pdnclient

import (
	"runtime"
	"testing"

	"github.com/stealthy-peers/pdnsec/internal/media"
	"github.com/stealthy-peers/pdnsec/internal/provider"
)

// p2pSegmentAllocBudget is what one P2P segment may allocate, the
// seeder's serve and the viewer's fetch together, on an untraced swarm:
// one record buffer per frame header (the want, the answer), and what
// the simulated network and the scheduler add — 7 on 2 vCPUs with
// go1.24 (7.2 now and then at -cpu 4), against 11 when each side copied
// the video and rendition strings out of every frame header, and 54 with
// a JSON frame header, a gathered body and boxed span arguments. The
// three above the count are slack for the runtime; any one of those
// back puts it over.
const p2pSegmentAllocBudget = 10

// p2pSegmentByteBudget bounds the bytes one P2P segment allocates, as a
// share of the segment: the body lands in the buffer the viewer's cache
// evicted, and the seeder seals it into the record buffer the viewer
// handed back, so a segment-sized allocation on either side (1 or more)
// puts it over.
const p2pSegmentByteBudget = 1.0 / 8

// TestP2PSegmentAllocBudget: a viewer plays a video over P2P from a
// seeder that cached it, and every allocation in the process between
// one P2P segment's OnSegment and the next — both peers, the signaling
// server and the simulated network — is counted against the segment,
// in number and in bytes.
func TestP2PSegmentAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("counted without the race detector, whose bookkeeping allocates")
	}
	const segments = 64
	tb := newTestbed(t, provider.Peer5(), smallVideo("bbb", segments))
	stop := runSeeder(t, tb.seederConfig(t, segments), segments)
	defer stop()

	cfg := tb.peerConfig(t)
	cfg.CacheSegments = 8
	var (
		first, full, last runtime.MemStats
		p2p, recycled     int
	)
	cfg.OnSegment = func(k media.SegmentKey, _ []byte, source string) {
		if source != SourceP2P {
			return
		}
		// The first P2P segment pays for the connection; counting starts
		// behind it. Bytes are counted from the first segment whose put
		// evicts: until then each segment's buffer is a new cache entry.
		p2p++
		switch {
		case p2p == 1:
			runtime.ReadMemStats(&first)
		case k.Index == cfg.CacheSegments:
			runtime.ReadMemStats(&full)
			last = full
		case k.Index > cfg.CacheSegments:
			recycled++
			runtime.ReadMemStats(&last)
		default:
			runtime.ReadMemStats(&last)
		}
	}
	st := runViewer(t, cfg)
	if st.FromP2P != segments-2 || p2p != st.FromP2P {
		t.Fatalf("viewer stats %+v, want everything after the 2 slow-start segments over P2P", st)
	}
	perSeg := float64(last.Mallocs-first.Mallocs) / float64(p2p-1)
	bytesPerSeg := float64(last.TotalAlloc-full.TotalAlloc) / float64(recycled)
	segBytes := float64(tb.video.Renditions[0].SegmentBytes)
	t.Logf("%.1f allocations per P2P segment over %d segments; %.0f B (%.3f of a segment) over the last %d",
		perSeg, p2p-1, bytesPerSeg, bytesPerSeg/segBytes, recycled)
	if perSeg > p2pSegmentAllocBudget {
		t.Errorf("a P2P segment allocates %.1f times, want at most %d", perSeg, p2pSegmentAllocBudget)
	}
	if bytesPerSeg > p2pSegmentByteBudget*segBytes {
		t.Errorf("a P2P segment allocates %.0f B, %.3f of its size; want at most %.3f",
			bytesPerSeg, bytesPerSeg/segBytes, p2pSegmentByteBudget)
	}
}
