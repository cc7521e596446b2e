// Command chaos runs a fault-injection scenario against a full simulated
// PDN deployment and checks its invariants, mirroring the test suite in
// internal/chaos but as an operator tool: pick a scenario, pick (or
// rotate) a seed, get the JSONL fault log and a pass/fail verdict. The
// printed seed is the reproduction — rerunning with it replays a
// byte-identical fault schedule.
//
// Usage:
//
//	go run ./cmd/chaos -scenario peer_churn -seed 7 -out faults.jsonl
//	go run ./cmd/chaos -scenario signal_crash -servers 3 -seed 7
//	go run ./cmd/chaos -list
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"time"

	"github.com/stealthy-peers/pdnsec/internal/chaos"
	"github.com/stealthy-peers/pdnsec/internal/obs"
)

// spec binds a named scenario to its swarm shape and the invariants it
// must uphold — the same pairings the internal/chaos tests assert.
type spec struct {
	about string
	// minServers is the smallest -servers value the scenario makes
	// sense at (zero = any).
	minServers int
	cfg        func(seed int64, viewers, segments int) chaos.SwarmConfig
	sc         func() chaos.Scenario
	inv        func(res *chaos.Result) chaos.Invariants
}

func plainConfig(seed int64, viewers, segments int) chaos.SwarmConfig {
	return chaos.SwarmConfig{Viewers: viewers, Segments: segments, Seed: seed}
}

func strictInvariants(*chaos.Result) chaos.Invariants {
	return chaos.Invariants{
		PlaybackCompletes: true,
		MaxStalls:         0,
		NoPollutedCache:   true,
		NoViewerErrors:    true,
	}
}

var specs = map[string]spec{
	"peer_churn": {
		about: "kill 40% of the swarm mid-playback; survivors evict and finish",
		cfg:   plainConfig,
		sc:    func() chaos.Scenario { return chaos.PeerChurn(25*time.Millisecond, 0.4) },
		inv:   strictInvariants,
	},
	"signal_partition": {
		about: "blackhole the signaling server for a window; playback rides it out",
		cfg:   plainConfig,
		sc:    func() chaos.Scenario { return chaos.SignalPartition(20*time.Millisecond, 150*time.Millisecond) },
		inv:   strictInvariants,
	},
	"signal_crash": {
		about:      "crash the plane member owning the swarm; viewers re-bootstrap (needs -servers >= 3)",
		minServers: 3,
		cfg: func(seed int64, viewers, segments int) chaos.SwarmConfig {
			// "chaos-fed" hashes to s2 on the 3-server ring, so the
			// scenario can name its victim deterministically.
			// 20ms pace keeps viewers alive past the post-crash
			// rejoin (first attempt ~70ms after the kill) even on
			// slow runners.
			return chaos.SwarmConfig{
				Viewers:  viewers,
				Segments: segments,
				Seed:     seed,
				Pace:     20 * time.Millisecond,
				VideoID:  "chaos-fed",
			}
		},
		sc: func() chaos.Scenario {
			return chaos.SignalCrash(20*time.Millisecond, chaos.NodeSignal+"-2")
		},
		inv: strictInvariants,
	},
	"cdn_brownout": {
		about: "degrade CDN latency and bandwidth for a window; no hard stalls",
		cfg:   plainConfig,
		sc: func() chaos.Scenario {
			return chaos.CDNBrownout(15*time.Millisecond, 100*time.Millisecond, 10*time.Millisecond, 512<<10)
		},
		inv: strictInvariants,
	},
	"polluted_wire": {
		about: "corrupt one viewer's entire uplink; no polluted bytes may be cached",
		cfg: func(seed int64, viewers, segments int) chaos.SwarmConfig {
			// Left at the harness's 2ms pace: stretched across the window,
			// the sick viewer's own CDN fetches corrupt mid-response and
			// each sits out the 10s HTTP timeout.
			return chaos.SwarmConfig{Viewers: viewers, Segments: segments, Seed: seed, Pace: 2 * time.Millisecond, HashManifest: true}
		},
		sc: func() chaos.Scenario {
			return chaos.PollutedWire(20*time.Millisecond, 120*time.Millisecond, "viewer-00")
		},
		inv: func(res *chaos.Result) chaos.Invariants {
			// The sick node's own CDN requests corrupt too, so it is
			// exempt from completion; cache integrity never is.
			return chaos.Invariants{
				PlaybackCompletes: true,
				MaxStalls:         int64(res.Segments),
				NoPollutedCache:   true,
				NoViewerErrors:    true,
				Exempt:            []string{"viewer-00"},
			}
		},
	},
	"sybil_flood": {
		about: "one host joins under 40 identities against the hardened profile; its match-grant share stays capped",
		cfg: func(seed int64, viewers, segments int) chaos.SwarmConfig {
			// Hardened geo-matches by country, so the honest swarm needs
			// country overlap to produce any honest match grants at all —
			// without that baseline the share denominator is degenerate and
			// the mill's ramp-up grants read as 100%.
			if viewers < 10 {
				viewers = 10
			}
			return chaos.SwarmConfig{
				Viewers:  viewers,
				Segments: segments,
				Seed:     seed,
				Profile:  "hardened",
			}
		},
		sc: func() chaos.Scenario { return chaos.SybilFlood(10*time.Millisecond, 40) },
		inv: func(*chaos.Result) chaos.Invariants {
			return chaos.Invariants{
				PlaybackCompletes: true,
				MaxStalls:         0,
				NoPollutedCache:   true,
				NoViewerErrors:    true,
				MaxSybilSlotShare: 0.5,
			}
		},
	},
	"eclipse_matcher": {
		about:      "colluders flood the candidate pool across a federated plane; honest viewers keep honest neighbors (needs -servers >= 3)",
		minServers: 3,
		cfg: func(seed int64, viewers, segments int) chaos.SwarmConfig {
			// Slow pace keeps honest playback alive long enough for the
			// mid-run colluder band to reach the matcher.
			return chaos.SwarmConfig{
				Viewers:  viewers,
				Segments: segments,
				Seed:     seed,
				Pace:     20 * time.Millisecond,
				VideoID:  "chaos-fed",
			}
		},
		sc: func() chaos.Scenario { return chaos.EclipseMatcher(15*time.Millisecond, 6) },
		inv: func(*chaos.Result) chaos.Invariants {
			return chaos.Invariants{
				PlaybackCompletes:  true,
				MaxStalls:          0,
				NoPollutedCache:    true,
				NoViewerErrors:     true,
				MinHonestNeighbors: 1,
			}
		},
	},
	"free_rider_wave": {
		about: "a leech-farm wave drains the swarm and honest members churn; upload fairness keeps a floor",
		cfg:   plainConfig,
		sc: func() chaos.Scenario {
			return chaos.FreeRiderWave(10*time.Millisecond, 8, 60*time.Millisecond, 0.25)
		},
		inv: func(*chaos.Result) chaos.Invariants {
			// The floor here is a robustness bound (the index cannot
			// collapse to one uploader); the meaningful per-profile
			// bounds live in the adversarial regression test.
			return chaos.Invariants{
				PlaybackCompletes: true,
				MaxStalls:         -1,
				NoPollutedCache:   true,
				NoViewerErrors:    true,
				MinJainFairness:   0.05,
			}
		},
	},
	"key_compromise": {
		about: "impersonators join under a leaked static key against the secure profile; possession proofs fail, the key is quarantined, nothing leaks",
		cfg: func(seed int64, viewers, segments int) chaos.SwarmConfig {
			return chaos.SwarmConfig{
				Viewers:  viewers,
				Segments: segments,
				Seed:     seed,
				Pace:     5 * time.Millisecond,
				Profile:  "secure",
			}
		},
		sc: func() chaos.Scenario { return chaos.KeyCompromise(10*time.Millisecond, 6) },
		inv: func(*chaos.Result) chaos.Invariants {
			return chaos.Invariants{
				PlaybackCompletes:    true,
				MaxStalls:            -1,
				NoPollutedCache:      true,
				NoViewerErrors:       true,
				MinSecureQuarantines: 1,
			}
		},
	},
	"flash_crowd_live": {
		about: "join-storm waves hit the plane while viewers chase a sliding live-HLS window; live-edge lag p99 stays bounded",
		cfg: func(seed int64, viewers, segments int) chaos.SwarmConfig {
			return chaos.SwarmConfig{
				Viewers:  viewers,
				Segments: segments,
				Seed:     seed,
				Pace:     5 * time.Millisecond,
				Live:     true,
				VideoID:  "chaos-live",
			}
		},
		sc: func() chaos.Scenario {
			return chaos.FlashCrowdLive(10*time.Millisecond, 30*time.Millisecond, 3, 12)
		},
		inv: func(*chaos.Result) chaos.Invariants {
			// Live playback tolerates skipped-window stalls; the property
			// under attack is staying near the edge.
			return chaos.Invariants{
				PlaybackCompletes: true,
				MaxStalls:         -1,
				NoPollutedCache:   true,
				NoViewerErrors:    true,
				MaxLiveLagP99:     40,
			}
		},
	},
}

func main() {
	os.Exit(run(context.Background(), os.Args[1:], os.Stdout, os.Stderr))
}

func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("chaos", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		scenario = fs.String("scenario", "peer_churn", "scenario to run (see -list)")
		seed     = fs.Int64("seed", 0, "fault schedule seed (0 = derive from the clock; the value used is always printed)")
		viewers  = fs.Int("viewers", 5, "swarm size (must be >= 1; up to 10k — raise -shards to match)")
		segments = fs.Int("segments", 5, "VOD length each viewer plays (must be >= 1)")
		shards   = fs.Int("shards", 0, "signaling server lock stripes (0 = single-stripe seed layout; 16 suits 10k-viewer swarms)")
		servers  = fs.Int("servers", 1, "federated signaling servers (must be >= 1; 1 = classic single server)")
		out      = fs.String("out", "", "write the JSONL fault log to this file (default: stdout)")
		traceOut = fs.String("trace", "", "write merged pdnsec-trace JSONL for every deployed process to this file (analyze with pdntrace; violation trace IDs resolve against it)")
		list     = fs.Bool("list", false, "list scenarios and exit")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	names := make([]string, 0, len(specs))
	for name := range specs {
		names = append(names, name)
	}
	sort.Strings(names)

	if *list {
		for _, name := range names {
			fmt.Fprintf(stdout, "%-18s %s\n", name, specs[name].about)
		}
		return 0
	}
	if *viewers < 1 || *segments < 1 {
		fmt.Fprintf(stderr, "chaos: -viewers and -segments must be >= 1 (got -viewers=%d -segments=%d)\n", *viewers, *segments)
		fs.Usage()
		return 2
	}
	if *servers < 1 {
		fmt.Fprintf(stderr, "chaos: -servers must be >= 1 (got -servers=%d)\n", *servers)
		fs.Usage()
		return 2
	}
	sp, ok := specs[*scenario]
	if !ok {
		fmt.Fprintf(stderr, "chaos: unknown scenario %q (have %v)\n", *scenario, names)
		return 2
	}
	if sp.minServers > 1 && *servers < sp.minServers {
		fmt.Fprintf(stderr, "chaos: scenario %s needs -servers >= %d (got %d)\n", *scenario, sp.minServers, *servers)
		fs.Usage()
		return 2
	}
	if *seed == 0 {
		//lint:ignore pdnlint/detrand rotating the seed is the point of the default; the value is printed below, and passing it back replays the identical schedule
		*seed = time.Now().UnixNano()
	}
	fmt.Fprintf(stdout, "chaos: scenario=%s seed=%d viewers=%d segments=%d servers=%d\n",
		*scenario, *seed, *viewers, *segments, *servers)

	sc := sp.sc()
	cfg := sp.cfg(*seed, *viewers, *segments)
	if cfg.Pace == 0 {
		// A fault that lands after playback has finished tests nothing, and
		// how long unpaced playback takes is whatever connects and fetches
		// happen to cost: size the session by the schedule instead.
		cfg.Pace = sc.PaceToOutlast(*segments)
	}
	cfg.Shards = *shards
	cfg.Servers = *servers
	var traces *obs.TraceSet
	if *traceOut != "" {
		traces = obs.NewTraceSet(nil, *seed)
		cfg.Traces = traces
	}
	res, err := chaos.RunScenario(ctx, cfg, sc)
	// The trace capture is written even for failed runs — a violation's
	// trace ID is only useful if the JSONL it points into survives.
	if traces != nil {
		if werr := traces.WriteFile(*traceOut); werr != nil {
			fmt.Fprintf(stderr, "chaos: write %s: %v\n", *traceOut, werr)
			return 2
		}
		fmt.Fprintf(stdout, "chaos: wrote trace JSONL for %d processes to %s\n", traces.Len(), *traceOut)
	}
	if err != nil {
		fmt.Fprintf(stderr, "chaos: harness failure (seed=%d): %v\n", *seed, err)
		return 2
	}

	if *out != "" {
		if err := os.WriteFile(*out, res.Log, 0o644); err != nil {
			fmt.Fprintf(stderr, "chaos: write log: %v\n", err)
			return 2
		}
	} else {
		stdout.Write(res.Log)
	}

	survivors := res.Survivors()
	completed := 0
	for _, v := range survivors {
		if v.Stats.SegmentsPlayed >= res.Segments {
			completed++
		}
	}
	fmt.Fprintf(stdout, "chaos: events=%d killed=%d survivors=%d completed=%d cdn_fallbacks=%d stalls=%d evictions=%d reconnects=%d\n",
		len(res.Events), len(res.Viewers)-len(survivors), len(survivors), completed,
		res.Counter("pdn_cdn_fallbacks_total"), res.Counter("pdn_stalls_total"),
		res.Counter("pdn_neighbors_evicted_total"), res.Counter("pdn_signal_reconnects_total"))

	if violations := sp.inv(res).Check(res); len(violations) > 0 {
		for _, v := range violations {
			fmt.Fprintln(stderr, "chaos: VIOLATION "+v)
		}
		fmt.Fprintf(stderr, "chaos: rerun: go run ./cmd/chaos -scenario %s -seed %d -viewers %d -segments %d -servers %d\n",
			*scenario, *seed, *viewers, *segments, *servers)
		return 1
	}
	fmt.Fprintln(stdout, "chaos: all invariants held")
	return 0
}
