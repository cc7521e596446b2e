package pdnclient_test

import (
	"context"
	"testing"
	"time"

	"github.com/stealthy-peers/pdnsec/internal/analyzer"
	"github.com/stealthy-peers/pdnsec/internal/provider"
)

// TestSecureHashOncePerHop: on the secure profile every copy of a
// segment is hashed once at the hop that received it, and serving it on
// hashes nothing. A seeder warming from the CDN checks each segment
// against its SIM and reports its IM with the one hash; a viewer hashes
// each segment it plays once, P2P and CDN copies alike; the seeder that
// served it is charged nothing more.
func TestSecureHashOncePerHop(t *testing.T) {
	const segments, segBytes = 20, 16 << 10
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	tb, err := analyzer.NewTestbed(ctx, analyzer.TestbedConfig{
		Profile: provider.Secure(),
		Video:   analyzer.SmallVideo("bbb", segments, segBytes),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer tb.Close()

	host, err := tb.NewViewerHost("US")
	if err != nil {
		t.Fatal(err)
	}
	cfg := tb.ViewerConfig(host, 1)
	seederMeter := analyzer.MeterFor(&cfg, host)
	_, stop, err := tb.Seeder(ctx, cfg, segments)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := seederMeter.Snapshot().HashBytes, int64(segments*segBytes); got != want {
		t.Fatalf("seeder warming %d segments hashed %d bytes, want %d: one hash per segment for its check and its IM report", segments, got, want)
	}

	host, err = tb.NewViewerHost("US")
	if err != nil {
		t.Fatal(err)
	}
	cfg = tb.ViewerConfig(host, 2)
	viewerMeter := analyzer.MeterFor(&cfg, host)
	st, err := tb.RunViewer(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if st.SegmentsPlayed != segments || st.FromP2P == 0 || st.IMRejected != 0 {
		t.Fatalf("viewer stats %+v: want all %d segments, some over P2P, none rejected", st, segments)
	}
	if got, want := viewerMeter.Snapshot().HashBytes, int64(segments*segBytes); got != want {
		t.Fatalf("viewer hashed %d bytes over %d segments (%d P2P), want %d: one hash per segment", got, segments, st.FromP2P, want)
	}
	seeder := stop()
	if served := int64(st.FromP2P * segBytes); seeder.P2PUpBytes != served {
		t.Fatalf("seeder uploaded %d bytes, want the %d segments the viewer took over P2P (%d bytes)", seeder.P2PUpBytes, st.FromP2P, served)
	}
	if got, want := seederMeter.Snapshot().HashBytes, int64(segments*segBytes); got != want {
		t.Fatalf("seeder hashed %d bytes after serving %d segments, want still %d: serving hashes nothing", got, st.FromP2P, want)
	}
}
