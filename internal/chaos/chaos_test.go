package chaos

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"net/netip"
	"strings"
	"testing"
	"time"

	"github.com/stealthy-peers/pdnsec/internal/netsim"
	"github.com/stealthy-peers/pdnsec/internal/pdnclient"
)

func statsPlayed(n int) pdnclient.Stats { return pdnclient.Stats{SegmentsPlayed: n} }

// chaosSeed drives the scenario suite. CI rotates it per run (logging
// the value); a failure message embeds the seed so the exact fault
// schedule can be replayed locally with
// go test ./internal/chaos -chaos-seed=<seed>.
var chaosSeed = flag.Int64("chaos-seed", 20260805, "seed for chaos scenario runs")

// newRoster builds an engine over a fresh network with n killable
// nodes named node-00..node-NN plus cdn/signal infrastructure nodes.
func newRoster(t *testing.T, seed int64, n int) *Engine {
	t.Helper()
	net := netsim.New(netsim.Config{Seed: seed})
	eng := NewEngine(net, seed)
	for i := 0; i < n+2; i++ {
		name := fmt.Sprintf("node-%02d", i)
		if i == n {
			name = NodeCDN
		} else if i == n+1 {
			name = NodeSignal
		}
		host, err := net.NewHost(netip.AddrFrom4([4]byte{10, 0, 0, byte(i + 1)}))
		if err != nil {
			t.Fatal(err)
		}
		node := Node{Name: name, Addr: host.Addr(), Host: host}
		if i < n {
			node.Kill = func() {}
		}
		eng.Register(node)
	}
	return eng
}

// fullScenario exercises every fault kind, with sub-millisecond
// offsets so determinism runs stay fast.
func fullScenario() Scenario {
	return Scenario{
		Name: "everything",
		Steps: []Step{
			KillFraction(0, 0.3),
			PartitionNode(time.Millisecond, NodeSignal),
			Slow(time.Millisecond, NodeCDN, 5*time.Millisecond, 1<<20),
			LinkLoss(2*time.Millisecond, "node-01", "node-02", 0.5),
			CorruptFrom(2*time.Millisecond, "node-03", 0.8, true),
			HealNode(3*time.Millisecond, NodeSignal),
			KillFraction(3*time.Millisecond, 0.5),
			KillNodes(4*time.Millisecond, NodeCDN),
			ClearCorruptFrom(4*time.Millisecond, "node-03"),
			Slow(4*time.Millisecond, NodeCDN, 0, 0),
		},
	}
}

// TestEventLogDeterministic is the reproducibility contract: the same
// seed yields a byte-identical JSONL event log run after run (CI
// repeats this under -race), and a different seed diverges.
func TestEventLogDeterministic(t *testing.T) {
	const seedA, seedB = 42, 43
	var first []byte
	for run := 0; run < 5; run++ {
		eng := newRoster(t, seedA, 10)
		if err := eng.Run(context.Background(), fullScenario()); err != nil {
			t.Fatalf("run %d: %v", run, err)
		}
		log := eng.LogBytes()
		if run == 0 {
			first = log
			continue
		}
		if !bytes.Equal(first, log) {
			t.Fatalf("seed %d run %d diverged:\nfirst:\n%s\nthis:\n%s", seedA, run, first, log)
		}
	}
	if len(first) == 0 {
		t.Fatal("empty event log")
	}

	engB := newRoster(t, seedB, 10)
	if err := engB.Run(context.Background(), fullScenario()); err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(first, engB.LogBytes()) {
		t.Fatalf("seeds %d and %d produced identical kill selections", seedA, seedB)
	}
}

// TestKillFractionSpendsRoster checks selection bookkeeping: fractions
// compose over the shrinking killable roster and never repeat victims.
func TestKillFractionSpendsRoster(t *testing.T) {
	eng := newRoster(t, 7, 10)
	sc := Scenario{Name: "churn_twice", Steps: []Step{
		KillFraction(0, 0.5),
		KillFraction(time.Millisecond, 1),
	}}
	if err := eng.Run(context.Background(), sc); err != nil {
		t.Fatal(err)
	}
	killed := eng.Killed()
	if len(killed) != 10 {
		t.Fatalf("killed %d of 10 killable nodes: %v", len(killed), killed)
	}
	for _, name := range killed {
		if name == NodeCDN || name == NodeSignal {
			t.Fatalf("kill_fraction crashed infrastructure node %s", name)
		}
	}
	events := eng.Events()
	if len(events) != 2 || len(events[0].Targets) != 5 || len(events[1].Targets) != 5 {
		t.Fatalf("unexpected events: %+v", events)
	}
}

// TestEngineRejectsUnknownNode ensures a bad roster reference fails the
// run instead of silently skipping the fault.
func TestEngineRejectsUnknownNode(t *testing.T) {
	eng := newRoster(t, 1, 2)
	err := eng.Run(context.Background(), Scenario{Name: "bad", Steps: []Step{
		PartitionNode(0, "nonexistent"),
	}})
	if err == nil || !strings.Contains(err.Error(), "nonexistent") {
		t.Fatalf("want unknown-node error, got %v", err)
	}
}

// TestScenarioValidate covers the malformed-step guards.
func TestScenarioValidate(t *testing.T) {
	cases := []struct {
		name string
		sc   Scenario
	}{
		{"negative offset", Scenario{Steps: []Step{KillFraction(-time.Second, 0.5)}}},
		{"fraction above 1", Scenario{Steps: []Step{KillFraction(0, 1.5)}}},
		{"partition without target", Scenario{Steps: []Step{{Fault: FaultPartition}}}},
		{"link loss without endpoints", Scenario{Steps: []Step{{Fault: FaultLinkLoss, Prob: 0.5}}}},
		{"corrupt probability", Scenario{Steps: []Step{CorruptFrom(0, "x", 2, false)}}},
		{"unknown fault", Scenario{Steps: []Step{{Fault: "meteor"}}}},
	}
	for _, tc := range cases {
		if err := tc.sc.Validate(); err == nil {
			t.Errorf("%s: Validate accepted malformed scenario", tc.name)
		}
	}
	if err := fullScenario().Validate(); err != nil {
		t.Errorf("well-formed scenario rejected: %v", err)
	}
}

// requireInvariants fails the test with the violations (each carries
// the seed for replay).
func requireInvariants(t *testing.T, inv Invariants, res *Result) {
	t.Helper()
	if violations := inv.Check(res); len(violations) > 0 {
		t.Fatalf("invariants violated (rerun: go test ./internal/chaos -chaos-seed=%d):\n%s\nfault log:\n%s",
			res.Seed, strings.Join(violations, "\n"), res.Log)
	}
}

// TestScenarioPeerChurn kills 40%% of the swarm mid-playback. The
// survivors must evict dead neighbors and finish clean off the CDN.
func TestScenarioPeerChurn(t *testing.T) {
	sc := PeerChurn(25*time.Millisecond, 0.4)
	res, err := RunScenario(context.Background(), SwarmConfig{
		Viewers:  5,
		Segments: 5,
		Seed:     *chaosSeed,
		Pace:     sc.PaceToOutlast(5),
	}, sc)
	if err != nil {
		t.Fatalf("seed=%d: %v", *chaosSeed, err)
	}
	requireInvariants(t, Invariants{
		PlaybackCompletes: true,
		MaxStalls:         0,
		NoPollutedCache:   true,
		NoViewerErrors:    true,
	}, res)
	if killed := len(res.Viewers) - len(res.Survivors()); killed != 2 {
		t.Fatalf("seed=%d: scenario killed %d viewers, want 2\nlog:\n%s", *chaosSeed, killed, res.Log)
	}
}

// TestScenarioSignalPartition blackholes the signaling server for a
// window. Established viewers ride it out (their reconnect loops
// re-join after the heal); late joiners degrade to plain CDN viewers.
// Playback must complete either way.
func TestScenarioSignalPartition(t *testing.T) {
	sc := SignalPartition(20*time.Millisecond, 150*time.Millisecond)
	res, err := RunScenario(context.Background(), SwarmConfig{
		Viewers:  4,
		Segments: 5,
		Seed:     *chaosSeed,
		Pace:     sc.PaceToOutlast(5),
	}, sc)
	if err != nil {
		t.Fatalf("seed=%d: %v", *chaosSeed, err)
	}
	requireInvariants(t, Invariants{
		PlaybackCompletes: true,
		MaxStalls:         0,
		NoPollutedCache:   true,
		NoViewerErrors:    true,
	}, res)
	if len(res.Events) != 2 {
		t.Fatalf("want partition+heal events, got %+v", res.Events)
	}
}

// TestScenarioCDNBrownout degrades the CDN origin for a window;
// playback leans on swarm caches and the slow origin and must still
// complete without hard stalls.
func TestScenarioCDNBrownout(t *testing.T) {
	sc := CDNBrownout(15*time.Millisecond, 100*time.Millisecond, 10*time.Millisecond, 512<<10)
	res, err := RunScenario(context.Background(), SwarmConfig{
		Viewers:  4,
		Segments: 5,
		Seed:     *chaosSeed,
		Pace:     sc.PaceToOutlast(5),
	}, sc)
	if err != nil {
		t.Fatalf("seed=%d: %v", *chaosSeed, err)
	}
	requireInvariants(t, Invariants{
		PlaybackCompletes: true,
		MaxStalls:         0,
		NoPollutedCache:   true,
		NoViewerErrors:    true,
	}, res)
}

// TestScenarioPollutedWire corrupts everything one viewer sends. DTLS
// authentication turns the corruption into dead connections, so the
// swarm must evict and fall back — and no corrupt bytes may ever
// surface in a cache. (Left at the harness's 2ms pace rather than
// PaceToOutlast: see docs/chaos.md, "Sizing the session".)
func TestScenarioPollutedWire(t *testing.T) {
	res, err := RunScenario(context.Background(), SwarmConfig{
		Viewers:      4,
		Segments:     5,
		Seed:         *chaosSeed,
		HashManifest: true,
	}, PollutedWire(20*time.Millisecond, 120*time.Millisecond, "viewer-00"))
	if err != nil {
		t.Fatalf("seed=%d: %v", *chaosSeed, err)
	}
	// The sick node's own uplink is destroyed for the window — its CDN
	// requests corrupt too — so it is exempt from completion, and the
	// stall bound covers its skipped segments. Cache integrity has no
	// exemptions: nobody may hold polluted bytes.
	requireInvariants(t, Invariants{
		PlaybackCompletes: true,
		MaxStalls:         int64(res.Segments),
		NoPollutedCache:   true,
		NoViewerErrors:    true,
		Exempt:            []string{"viewer-00"},
	}, res)
}

// TestScenarioFederatedSignalCrash runs the swarm against a 3-server
// federated plane and crashes the member that owns the swarm
// ("chaos-fed" hashes to s2 — the ring is deterministic, so the
// scenario can name its victim up front). The ring hands the swarm to
// a survivor, stranded viewers re-bootstrap through their peerstores,
// and playback must complete without a stall.
func TestScenarioFederatedSignalCrash(t *testing.T) {
	// Playback must outlast the crash recovery: the reconnect loop's
	// first rejoin lands ~70ms after the kill (50ms base backoff plus
	// detection), and a rejoin re-dials, re-joins, and re-gathers ICE —
	// work that stretches under -race on loaded runners while the pace
	// clock does not. 12 segments at 20ms keep viewers alive well past
	// the rejoin even when it runs slow.
	res, err := RunScenario(context.Background(), SwarmConfig{
		Viewers:  5,
		Segments: 12,
		Seed:     *chaosSeed,
		Pace:     20 * time.Millisecond,
		Servers:  3,
		VideoID:  "chaos-fed",
	}, SignalCrash(20*time.Millisecond, NodeSignal+"-2"))
	if err != nil {
		t.Fatalf("seed=%d: %v", *chaosSeed, err)
	}
	requireInvariants(t, Invariants{
		PlaybackCompletes: true,
		MaxStalls:         0,
		NoPollutedCache:   true,
		NoViewerErrors:    true,
	}, res)
	if got := res.Counter("pdn_signal_reconnects_total"); got == 0 {
		t.Errorf("seed=%d: no viewer re-bootstrapped after the owner crash\nlog:\n%s", *chaosSeed, res.Log)
	}
	if got := res.Counter("signal_redirects_total"); got == 0 {
		t.Errorf("seed=%d: federated joins never redirected", *chaosSeed)
	}
}

// TestInvariantMessagesCarrySeed pins the replay contract: every
// violation message embeds scenario name and seed.
func TestInvariantMessagesCarrySeed(t *testing.T) {
	res := &Result{
		Scenario: "synthetic",
		Seed:     987,
		Segments: 4,
		Viewers: []*ViewerResult{
			{Name: "viewer-00", Stats: statsPlayed(2)},
			{Name: "viewer-01", Killed: true},
		},
	}
	violations := Invariants{PlaybackCompletes: true, MaxStalls: -1}.Check(res)
	if len(violations) != 1 {
		t.Fatalf("want 1 violation (killed viewer exempt), got %v", violations)
	}
	if !strings.Contains(violations[0], "seed=987") || !strings.Contains(violations[0], "scenario=synthetic") {
		t.Fatalf("violation message lacks replay info: %s", violations[0])
	}
}
