package pdnclient

import (
	"context"
	"testing"
	"time"

	"github.com/stealthy-peers/pdnsec/internal/media"
	"github.com/stealthy-peers/pdnsec/internal/provider"
)

// matchRequests reads how many get_peers the testbed's signaling server
// has served, whoever sent them.
func (tb *testbed) matchRequests() int64 {
	return tb.reg.Counter("signal_match_requests_total", "").Value()
}

// seederConfig is a peer config whose cache holds the whole video, so a
// lingering seeder can serve any segment of it.
func (tb *testbed) seederConfig(t *testing.T, segments int) Config {
	cfg := tb.peerConfig(t)
	cfg.CacheSegments = segments
	return cfg
}

// runViewer plays the whole video and fails the test on an error.
func runViewer(t *testing.T, cfg Config) Stats {
	t.Helper()
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	st, err := p.Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// TestFutileMatchBackoff: a viewer whose swarm holds one seeder has it
// as a neighbor from the first ask on, and every later ask returns the
// same one peer. It asks after 1, 3, 7, 15 and 31 further segments, not
// before each of the 62 that follow slow start, and loses no P2P segment
// by it.
func TestFutileMatchBackoff(t *testing.T) {
	const segments = 64
	tb := newTestbed(t, provider.Peer5(), smallVideo("bbb", segments))
	stop := runSeeder(t, tb.seederConfig(t, segments), segments)
	defer stop()

	before := tb.matchRequests() // the lingering seeder asks for nothing more
	st := runViewer(t, tb.peerConfig(t))
	asks := tb.matchRequests() - before
	if st.SegmentsPlayed != segments || st.FromP2P != segments-2 {
		t.Fatalf("viewer stats %+v, want everything after the 2 slow-start segments over P2P", st)
	}
	if asks < 2 || asks > 8 {
		t.Fatalf("viewer sent %d get_peers over %d P2P-eligible segments, want the first, then a handful at doubling distances (at most 8)", asks, segments-2)
	}
}

// TestNeighborLossResetsMatchBackoff: deep in its backoff the viewer
// loses its only neighbor. The very next segment asks the matcher again,
// finds the seeder that has come up meanwhile, and plays over P2P.
func TestNeighborLossResetsMatchBackoff(t *testing.T) {
	const segments, lossAt = 48, 20 // asks at 2, 3, 5, 9, 17; the next is not due before 33
	tb := newTestbed(t, provider.Peer5(), smallVideo("bbb", segments))
	stopFirst := runSeeder(t, tb.seederConfig(t, segments), segments)

	var viewer *Peer
	var asksAfterSwap, asksAtNext int64
	var nextSource string
	cfg := tb.peerConfig(t)
	// OnSegment runs on the playback goroutine: the swap happens between
	// two segments, with the viewer's connections live throughout.
	cfg.OnSegment = func(key media.SegmentKey, _ []byte, source string) {
		switch key.Index {
		case lossAt:
			stopFirst()
			waitFor(t, 5*time.Second, func() bool { return viewer.NeighborCount() == 0 })
			stopSecond := runSeeder(t, tb.seederConfig(t, segments), segments)
			t.Cleanup(func() { stopSecond() })
			asksAfterSwap = tb.matchRequests()
		case lossAt + 1:
			asksAtNext, nextSource = tb.matchRequests(), source
		}
	}
	var err error
	if viewer, err = New(cfg); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	st, err := viewer.Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.SegmentsPlayed != segments {
		t.Fatalf("viewer stats %+v", st)
	}
	if asksAtNext-asksAfterSwap != 1 {
		t.Fatalf("viewer sent %d get_peers for the segment after it lost its neighbor, want 1", asksAtNext-asksAfterSwap)
	}
	if nextSource != SourceP2P || st.FromP2P != segments-2 {
		t.Fatalf("segment %d came from %q and %d of %d from P2P; want P2P resumed at once on the second seeder", lossAt+1, nextSource, st.FromP2P, segments)
	}
}

// TestLateJoinerReachesBackedOffViewer: discovery does not wait for a
// backed-off peer's next ask. A viewer alone in its swarm has stopped
// asking every segment; one that joins now asks at once, is handed the
// first, connects to it and is served.
func TestLateJoinerReachesBackedOffViewer(t *testing.T) {
	const segments, joinAt = 48, 24 // the first viewer asked at 2, 3, 5, 9, 17; next at 33
	tb := newTestbed(t, provider.Peer5(), smallVideo("bbb", segments))

	var first *Peer
	var late Stats
	var asksBefore, asksAfter int64
	cfg := tb.seederConfig(t, segments)
	cfg.OnSegment = func(key media.SegmentKey, _ []byte, _ string) {
		if key.Index != joinAt {
			return
		}
		if n := first.NeighborCount(); n != 0 {
			t.Errorf("first viewer has %d neighbors in an empty swarm", n)
		}
		asksBefore = tb.matchRequests()
		lateCfg := tb.peerConfig(t)
		lateCfg.MaxSegments = joinAt + 1 // what the first viewer can serve
		late = runViewer(t, lateCfg)
		asksAfter = tb.matchRequests()
	}
	var err error
	if first, err = New(cfg); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	st, err := first.Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.SegmentsPlayed != segments || st.P2PUpBytes == 0 {
		t.Fatalf("first viewer stats %+v, want uploads to the late joiner", st)
	}
	if asksBefore > 8 {
		t.Fatalf("first viewer sent %d get_peers over %d segments alone, want it backed off", asksBefore, joinAt)
	}
	if late.FromP2P != joinAt+1-2 {
		t.Fatalf("late joiner stats %+v, want every segment after slow start from the first viewer", late)
	}
	if asks := asksAfter - asksBefore; asks < 1 || asks > 8 {
		t.Fatalf("late joiner sent %d get_peers, want one that found the first viewer and a few futile ones", asks)
	}
}
