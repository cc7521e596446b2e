// Command chaos runs a scenario from the internal/chaos catalogue
// against a full simulated PDN deployment and checks its invariants:
// the same entries the test suite runs, as an operator tool. Pick a
// scenario, pick (or rotate) a seed, and get the JSONL fault log and a
// pass/fail verdict. The printed seed is the reproduction — rerunning
// with it replays a byte-identical fault schedule.
//
// Usage:
//
//	go run ./cmd/chaos -scenario peer_churn -seed 7 -out faults.jsonl
//	go run ./cmd/chaos -scenario signal_crash -seed 7
//	go run ./cmd/chaos -list
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"github.com/stealthy-peers/pdnsec/internal/chaos"
	"github.com/stealthy-peers/pdnsec/internal/obs"
)

func main() {
	os.Exit(run(context.Background(), os.Args[1:], os.Stdout, os.Stderr))
}

func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("chaos", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		scenario = fs.String("scenario", "peer_churn", "scenario to run (see -list)")
		seed     = fs.Int64("seed", 0, "fault schedule seed (0 = derive from the clock; the value used is always printed)")
		viewers  = fs.Int("viewers", 0, "swarm size (default: the scenario's; must be >= 1; up to 10k — raise -shards to match)")
		segments = fs.Int("segments", 0, "VOD length each viewer plays (default: the scenario's; must be >= 1)")
		shards   = fs.Int("shards", 0, "signaling server lock stripes (0 = single-stripe seed layout; 16 suits 10k-viewer swarms)")
		servers  = fs.Int("servers", 0, "federated signaling servers (default: the scenario's; must be >= 1; 1 = classic single server)")
		out      = fs.String("out", "", "write the JSONL fault log to this file (default: stdout)")
		traceOut = fs.String("trace", "", "write merged pdnsec-trace JSONL for every deployed process to this file (analyze with pdntrace; violation trace IDs resolve against it)")
		list     = fs.Bool("list", false, "list scenarios and exit")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *list {
		for _, name := range chaos.Names() {
			e, _ := chaos.Lookup(name)
			fmt.Fprintf(stdout, "%-18s %s\n", name, e.About)
		}
		return 0
	}
	e, ok := chaos.Lookup(*scenario)
	if !ok {
		fmt.Fprintf(stderr, "chaos: unknown scenario %q (have %v)\n", *scenario, chaos.Names())
		return 2
	}
	// A flag left unset takes the scenario's value.
	cfg := e.Swarm
	cfg.Servers = max(cfg.Servers, 1)
	fs.Visit(func(f *flag.Flag) {
		switch f.Name {
		case "viewers":
			cfg.Viewers = *viewers
		case "segments":
			cfg.Segments = *segments
		case "shards":
			cfg.Shards = *shards
		case "servers":
			cfg.Servers = *servers
		}
	})
	if cfg.Viewers < 1 || cfg.Segments < 1 {
		fmt.Fprintf(stderr, "chaos: -viewers and -segments must be >= 1 (got -viewers=%d -segments=%d)\n", cfg.Viewers, cfg.Segments)
		fs.Usage()
		return 2
	}
	if cfg.Servers < 1 {
		fmt.Fprintf(stderr, "chaos: -servers must be >= 1 (got -servers=%d)\n", cfg.Servers)
		fs.Usage()
		return 2
	}
	if cfg.Servers < e.Swarm.Servers {
		fmt.Fprintf(stderr, "chaos: scenario %s needs -servers >= %d (got %d)\n", *scenario, e.Swarm.Servers, cfg.Servers)
		fs.Usage()
		return 2
	}
	if *seed == 0 {
		//lint:ignore pdnlint/detrand rotating the seed is the point of the default; the value is printed below, and passing it back replays the identical schedule
		*seed = time.Now().UnixNano()
	}
	cfg.Seed = *seed
	fmt.Fprintf(stdout, "chaos: scenario=%s seed=%d viewers=%d segments=%d servers=%d\n",
		*scenario, *seed, cfg.Viewers, cfg.Segments, cfg.Servers)

	var traces *obs.TraceSet
	if *traceOut != "" {
		traces = obs.NewTraceSet(nil, *seed)
		cfg.Traces = traces
	}
	res, err := chaos.RunScenario(ctx, cfg, e.Scenario)
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

	if violations := e.Invariants.Check(res); len(violations) > 0 {
		for _, v := range violations {
			fmt.Fprintln(stderr, "chaos: VIOLATION "+v)
		}
		fmt.Fprintf(stderr, "chaos: rerun: go run ./cmd/chaos -scenario %s -seed %d -viewers %d -segments %d -servers %d\n",
			*scenario, *seed, cfg.Viewers, cfg.Segments, cfg.Servers)
		return 1
	}
	fmt.Fprintln(stdout, "chaos: all invariants held")
	return 0
}
