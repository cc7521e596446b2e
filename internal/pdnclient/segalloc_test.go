package pdnclient

import (
	"runtime"
	"testing"

	"github.com/stealthy-peers/pdnsec/internal/media"
	"github.com/stealthy-peers/pdnsec/internal/provider"
)

// p2pSegmentAllocBudget is what one P2P segment may allocate, the
// seeder's serve and the viewer's fetch together, on an untraced swarm:
// one record buffer per message (the want, the header, the body), the
// decoded headers' strings, and what the simulated network and the
// scheduler add — 12 on 2 vCPUs with go1.24, against 54 with a JSON
// frame header, a gathered body and boxed span arguments. Any one of
// those back puts it over.
const p2pSegmentAllocBudget = 16

// TestP2PSegmentAllocBudget: a viewer plays a video over P2P from a
// seeder that cached it, and every allocation in the process between
// one P2P segment's OnSegment and the next — both peers, the signaling
// server and the simulated network — is counted against the segment.
func TestP2PSegmentAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("counted without the race detector, whose bookkeeping allocates")
	}
	const segments = 64
	tb := newTestbed(t, provider.Peer5(), smallVideo("bbb", segments))
	stop := runSeeder(t, tb.seederConfig(t, segments), segments)
	defer stop()

	cfg := tb.peerConfig(t)
	var (
		first, last runtime.MemStats
		p2p         int
	)
	cfg.OnSegment = func(_ media.SegmentKey, _ []byte, source string) {
		if source != SourceP2P {
			return
		}
		// The first P2P segment pays for the connection; counting starts
		// behind it.
		if p2p++; p2p == 1 {
			runtime.ReadMemStats(&first)
		} else {
			runtime.ReadMemStats(&last)
		}
	}
	st := runViewer(t, cfg)
	if st.FromP2P != segments-2 || p2p != st.FromP2P {
		t.Fatalf("viewer stats %+v, want everything after the 2 slow-start segments over P2P", st)
	}
	perSeg := float64(last.Mallocs-first.Mallocs) / float64(p2p-1)
	t.Logf("%.1f allocations per P2P segment over %d segments", perSeg, p2p-1)
	if perSeg > p2pSegmentAllocBudget {
		t.Errorf("a P2P segment allocates %.1f times, want at most %d", perSeg, p2pSegmentAllocBudget)
	}
}
