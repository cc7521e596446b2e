package pdnclient

import (
	"context"
	"strings"
	"testing"
	"time"

	"github.com/stealthy-peers/pdnsec/internal/provider"
)

// TestPlayedClosesBeforeLinger: Played closes once playback is over, long
// before a one-minute linger would end, and the SegmentsPlayed read then
// is the count Run finally returns.
func TestPlayedClosesBeforeLinger(t *testing.T) {
	tb := newTestbed(t, provider.Peer5(), smallVideo("bbb", 6))
	cfg := tb.peerConfig(t)
	cfg.MaxSegments = 6
	cfg.Linger = time.Minute
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	done := make(chan Stats, 1)
	go func() {
		st, _ := p.Run(ctx)
		done <- st
	}()
	linger := time.NewTimer(cfg.Linger)
	defer linger.Stop()
	select {
	case <-p.Played():
	case <-linger.C:
		t.Fatal("Played did not close before the linger ended")
	}
	played := p.Stats().SegmentsPlayed
	select {
	case st := <-done:
		t.Fatalf("Run returned instead of lingering: %+v", st)
	default:
	}
	p.StopLinger()
	if st := <-done; played != 6 || st.SegmentsPlayed != played {
		t.Fatalf("played %d when Played closed and %d when Run returned, want 6 both", played, st.SegmentsPlayed)
	}
}

// TestPlayedClosesOnRefusedJoin: a join the server refuses ends Run
// before playback, and Played is closed all the same.
func TestPlayedClosesOnRefusedJoin(t *testing.T) {
	tb := newTestbed(t, provider.Peer5(), smallVideo("bbb", 6))
	cfg := tb.peerConfig(t)
	cfg.APIKey = "not-a-key"
	cfg.Linger = time.Minute
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if _, err := p.Run(ctx); err == nil {
		t.Fatal("a join with an unknown key was accepted")
	}
	select {
	case <-p.Played():
	default:
		t.Fatal("Played is still open after a refused join")
	}
	if n := p.Stats().SegmentsPlayed; n != 0 {
		t.Fatalf("a refused peer played %d segments", n)
	}
}

// TestSeedRefusedJoinFailsAtOnce: a seeder whose join is refused
// reports it as soon as Run gives up, with the count it played.
func TestSeedRefusedJoinFailsAtOnce(t *testing.T) {
	tb := newTestbed(t, provider.Peer5(), smallVideo("bbb", 6))
	cfg := tb.peerConfig(t)
	cfg.APIKey = "not-a-key"
	cfg.MaxSegments = 6
	start := time.Now()
	p, stop, err := Seed(context.Background(), cfg)
	if err == nil {
		stop()
		t.Fatal("a seeder with an unknown key was accepted")
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("refused seeder took %v to fail, want under 2s", elapsed)
	}
	if p != nil || stop != nil {
		t.Fatal("a failed Seed returned a peer or a stop function")
	}
	if !strings.Contains(err.Error(), "played 0/6") || !strings.Contains(err.Error(), "join") {
		t.Fatalf("error %q does not name the played count and the join", err)
	}
}

// TestSeedNeedsMaxSegments: a seeder must know what it seeds.
func TestSeedNeedsMaxSegments(t *testing.T) {
	tb := newTestbed(t, provider.Peer5(), smallVideo("bbb", 2))
	_, _, err := Seed(context.Background(), tb.peerConfig(t))
	if err == nil || !strings.Contains(err.Error(), "MaxSegments") {
		t.Fatalf("Seed without MaxSegments: err = %v, want one naming MaxSegments", err)
	}
}

// TestSeedLingersUntilStopped: a seeder stays online until its stop
// function is called or its context ends, and stop is safe to call
// twice.
func TestSeedLingersUntilStopped(t *testing.T) {
	tb := newTestbed(t, provider.Peer5(), smallVideo("bbb", 4))
	cfg := tb.peerConfig(t)
	cfg.MaxSegments = 4
	p, stop, err := Seed(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if p.ID() == "" {
		t.Fatal("seeder holds no session after playback")
	}
	select {
	case <-p.closed:
		t.Fatal("seeder tore down before it was stopped")
	default:
	}
	if st := stop(); st.SegmentsPlayed != 4 {
		t.Fatalf("seeder played %d/4", st.SegmentsPlayed)
	}
	if st := stop(); st.SegmentsPlayed != 4 {
		t.Fatalf("second stop returned %+v", st)
	}
	<-p.closed

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cfg = tb.peerConfig(t)
	cfg.MaxSegments = 4
	p, _, err = Seed(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cancel()
	<-p.closed // torn down without a stop
}
