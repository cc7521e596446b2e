package chaos

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"net/netip"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/stealthy-peers/pdnsec/internal/golden"
	"github.com/stealthy-peers/pdnsec/internal/netsim"
	"github.com/stealthy-peers/pdnsec/internal/pdnclient"
)

func statsPlayed(n int) pdnclient.Stats { return pdnclient.Stats{SegmentsPlayed: n} }

// chaosSeed drives the scenario suite. CI rotates it per run (logging
// the value); a failure message embeds the seed so the exact fault
// schedule can be replayed locally with
// go test ./internal/chaos -chaos-seed=<seed>.
var chaosSeed = flag.Int64("chaos-seed", defaultChaosSeed, "seed for chaos scenario runs")

// defaultChaosSeed is the committed seed the golden fault logs pin.
const defaultChaosSeed = 20260805

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

// runEntry runs the catalogued scenario at -chaos-seed and holds it to
// the entry's invariants. At the committed default seed its fault log
// must also match testdata/faultlogs/<name>.jsonl; a rotated seed skips
// only that comparison.
func runEntry(t *testing.T, name string) *Result {
	t.Helper()
	e, ok := Lookup(name)
	if !ok {
		t.Fatalf("no catalogued scenario %q", name)
	}
	cfg := e.Swarm
	cfg.Seed = *chaosSeed
	res, err := RunScenario(context.Background(), cfg, e.Scenario)
	if err != nil {
		t.Fatalf("seed=%d: %v", *chaosSeed, err)
	}
	inv := e.Invariants
	if raceEnabled {
		// The lag bound is wall-clock-sensitive: the race detector's
		// slowdown stretches how far viewers trail the sliding window, so
		// it gets headroom there. The fire-test pins the bound's logic.
		inv.MaxLiveLagP99 *= 4
	}
	requireInvariants(t, inv, res)
	if *chaosSeed == defaultChaosSeed {
		golden.Check(t, faultLogPath(name), res.Log)
	}
	return res
}

// faultLogPath is where a catalogued scenario's golden fault log lives.
func faultLogPath(name string) string {
	return filepath.Join("testdata", "faultlogs", name+".jsonl")
}

// TestCatalog checks every entry before anything runs: it is filed
// under its scenario's name, its schedule validates, it has a golden
// fault log, and its session outlasts its schedule, so every fault
// lands while viewers are still playing. polluted_wire is exempt from
// the last: stretched across its window, the sick viewer's own CDN
// responses corrupt mid-read and each waits out the 10 s HTTP timeout
// (docs/chaos.md, "Sizing the session").
func TestCatalog(t *testing.T) {
	for _, name := range Names() {
		e, _ := Lookup(name)
		if e.Scenario.Name != name {
			t.Errorf("%s: catalogued under the wrong name; its scenario is %q", name, e.Scenario.Name)
		}
		if err := e.Scenario.Validate(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
		if _, err := os.Stat(faultLogPath(name)); err != nil {
			t.Errorf("%s: no golden fault log: %v", name, err)
		}
		if name == "polluted_wire" {
			continue
		}
		cfg := e.Swarm
		if cfg.Pace == 0 {
			cfg.Pace = e.Scenario.PaceToOutlast(cfg.Segments) // as RunScenario sizes it
		}
		session := cfg.Pace * time.Duration(cfg.Segments)
		if cfg.Live {
			session = time.Duration(float64(cfg.Segments) * liveSegDur * float64(time.Second))
		}
		if span := e.Scenario.Span(); session < outlastFactor*span {
			t.Errorf("%s: a %v session does not outlast %d× its %v schedule", name, session, outlastFactor, span)
		}
	}
}

// TestScenarioPeerChurn kills 40% of the swarm mid-playback. The
// survivors must evict dead neighbors and finish clean off the CDN.
func TestScenarioPeerChurn(t *testing.T) {
	res := runEntry(t, "peer_churn")
	if killed := len(res.Viewers) - len(res.Survivors()); killed != 2 {
		t.Fatalf("seed=%d: scenario killed %d viewers, want 2\nlog:\n%s", *chaosSeed, killed, res.Log)
	}
}

// TestScenarioSignalPartition blackholes the signaling server for a
// window. Established viewers ride it out (their reconnect loops
// re-join after the heal); late joiners degrade to plain CDN viewers.
// Playback must complete either way.
func TestScenarioSignalPartition(t *testing.T) {
	if res := runEntry(t, "signal_partition"); len(res.Events) != 2 {
		t.Fatalf("want partition+heal events, got %+v", res.Events)
	}
}

// TestScenarioCDNBrownout degrades the CDN origin for a window;
// playback leans on swarm caches and the slow origin and must still
// complete without hard stalls.
func TestScenarioCDNBrownout(t *testing.T) {
	runEntry(t, "cdn_brownout")
}

// TestScenarioPollutedWire corrupts everything one viewer sends. DTLS
// authentication turns the corruption into dead connections, so the
// swarm must evict and fall back — and no corrupt bytes may ever
// surface in a cache.
func TestScenarioPollutedWire(t *testing.T) {
	runEntry(t, "polluted_wire")
}

// TestScenarioFederatedSignalCrash runs the swarm against a 3-server
// federated plane and crashes the member that owns the swarm. The ring
// hands the swarm to a survivor, stranded viewers re-bootstrap through
// their peerstores, and playback must complete without a stall.
func TestScenarioFederatedSignalCrash(t *testing.T) {
	res := runEntry(t, "signal_crash")
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
