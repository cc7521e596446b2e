package pdnclient_test

import (
	"context"
	"runtime"
	"testing"
	"time"

	"github.com/stealthy-peers/pdnsec/internal/analyzer"
	"github.com/stealthy-peers/pdnsec/internal/media"
	"github.com/stealthy-peers/pdnsec/internal/pdnclient"
	"github.com/stealthy-peers/pdnsec/internal/provider"
)

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
// in number and in bytes. Each profile's budget is its count over 125
// P2P segments on 2 vCPUs with go1.24, plus one:
//   - peer5 reads 3.4: what the simulated network, the scheduler and
//     the viewer's futile-match asks add. Each frame header's record
//     buffer comes back to its sender as a body's does; 5.4 means they
//     are allocated per segment again.
//   - secure, uploads uncapped as pdnbench runs it, reads 4.4: one more
//     GetSIM round trip, at segment 64, shared by the segments its
//     window covers. Every segment is hashed into the viewer's own
//     digest and compared in place; 9.4 means its hash and hex are
//     allocated per segment again, and 7.9 that a window covers 16
//     segments again.
func TestP2PSegmentAllocBudget(t *testing.T) {
	if pdnclient.RaceEnabled {
		t.Skip("counted without the race detector, whose bookkeeping allocates")
	}
	secure := provider.Secure()
	secure.Policy.MaxUploadBytes = 0
	for _, tc := range []struct {
		prof   provider.Profile
		budget float64
	}{
		{provider.Peer5(), 4.5},
		{secure, 5.5},
	} {
		t.Run(tc.prof.Name, func(t *testing.T) { testP2PSegmentAllocs(t, tc.prof, tc.budget) })
	}
}

func testP2PSegmentAllocs(t *testing.T, prof provider.Profile, budget float64) {
	const segments, segBytes = 128, 32 << 10
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	tb, err := analyzer.NewTestbed(ctx, analyzer.TestbedConfig{Profile: prof, Video: analyzer.SmallVideo("bbb", segments, segBytes)})
	if err != nil {
		t.Fatal(err)
	}
	defer tb.Close()
	host, err := tb.NewViewerHost("US")
	if err != nil {
		t.Fatal(err)
	}
	seeder := tb.ViewerConfig(host, 1)
	seeder.CacheSegments = segments // it can serve the whole video
	_, stop, err := tb.Seeder(ctx, seeder, segments)
	if err != nil {
		t.Fatal(err)
	}
	defer stop()

	if host, err = tb.NewViewerHost("US"); err != nil {
		t.Fatal(err)
	}
	cfg := tb.ViewerConfig(host, 2)
	cfg.CacheSegments = 8
	var (
		first, full, last runtime.MemStats
		p2p, recycled     int
	)
	cfg.OnSegment = func(k media.SegmentKey, _ []byte, source string) {
		if source != pdnclient.SourceP2P {
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
	st, err := tb.RunViewer(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if st.FromP2P != segments-2 || p2p != st.FromP2P {
		t.Fatalf("viewer stats %+v, want everything after the 2 slow-start segments over P2P", st)
	}
	perSeg := float64(last.Mallocs-first.Mallocs) / float64(p2p-1)
	bytesPerSeg := float64(last.TotalAlloc-full.TotalAlloc) / float64(recycled)
	t.Logf("%.2f allocations per P2P segment over %d segments; %.0f B (%.3f of a segment) over the last %d",
		perSeg, p2p-1, bytesPerSeg, bytesPerSeg/segBytes, recycled)
	if perSeg > budget {
		t.Errorf("a P2P segment allocates %.2f times, want at most %g", perSeg, budget)
	}
	if bytesPerSeg > p2pSegmentByteBudget*segBytes {
		t.Errorf("a P2P segment allocates %.0f B, %.3f of its size; want at most %.3f",
			bytesPerSeg, bytesPerSeg/segBytes, p2pSegmentByteBudget)
	}
}
