package bench

import (
	"math"
	"testing"

	"github.com/stealthy-peers/pdnsec/internal/traceview"
)

func TestLayerOf(t *testing.T) {
	// The two names traceview.HopType files under "other".
	for name, want := range map[string]string{
		"secure_handshake": LayerHandshake,
		"p2p_answer":       LayerConnect,
		"segment":          LayerPlayback,
		"no_such_span":     "",
	} {
		if got := LayerOf(name); got != want {
			t.Errorf("LayerOf(%q) = %q, want %q", name, got, want)
		}
	}
	known := make(map[string]bool)
	for _, l := range Layers() {
		known[l] = true
	}
	for name, layer := range spanLayers {
		if !known[layer] {
			t.Errorf("span %q maps to %q, which Layers() does not list", name, layer)
		}
	}
}

func span(name string, id, parent uint64, ts, dur int64) traceview.Rec {
	return traceview.Rec{Name: name, Proc: "t", Phase: "X", Trace: 1, Span: id, Parent: parent, TS: ts, Dur: dur}
}

func TestSplitTrace(t *testing.T) {
	recs := []traceview.Rec{
		span("segment", 1, 0, 0, 100),
		span("signal_match_serve", 2, 1, 5, 5), // off the critical path
		span("p2p_request", 3, 1, 10, 50),
		span("p2p_serve", 4, 3, 20, 20),
		span("mystery_span", 5, 1, 70, 10),
	}
	ts := SplitTrace(recs, traceview.ParseStats{})
	if len(ts.Unmapped) != 1 || ts.Unmapped[0] != "mystery_span" {
		t.Errorf("unmapped = %v, want [mystery_span]", ts.Unmapped)
	}
	if ts.Spans != 5 || ts.Orphans != 0 {
		t.Errorf("spans %d orphans %d", ts.Spans, ts.Orphans)
	}
	// Self time: segment 100 - (5 + 50 + 10); p2p_request 50 - 20.
	if got := ts.selfUs[LayerPlayback]; len(got) != 1 || got[0] != 35 {
		t.Errorf("playback self = %v, want [35]", got)
	}
	if got := ts.selfUs[LayerP2P]; len(got) != 2 || got[0]+got[1] != 50 {
		t.Errorf("p2p self = %v, want 30 and 20", got)
	}
	// The critical path descends into the child that ends last: the
	// mystery span (ends at 80), so segment keeps 90 and it takes 10.
	out := make(map[string]Value)
	ts.metrics(1, out)
	if got := out["trace.playback.critical_share"].Value; math.Abs(got-0.9) > 1e-9 {
		t.Errorf("playback critical share = %v, want 0.9", got)
	}

	// Without the stray span the path is segment → p2p_request → p2p_serve.
	ts = SplitTrace(recs[:4], traceview.ParseStats{})
	out = make(map[string]Value)
	ts.metrics(1, out)
	if got := out["trace.playback.critical_share"].Value; math.Abs(got-0.5) > 1e-9 {
		t.Errorf("playback critical share = %v, want 0.5", got)
	}
	if got := out["trace.p2p.critical_share"].Value; math.Abs(got-0.5) > 1e-9 {
		t.Errorf("p2p critical share = %v, want 0.5", got)
	}
	if got := out["trace.p2p.spans_per_seg"].Value; got != 2 {
		t.Errorf("p2p spans per segment = %v, want 2", got)
	}
}
