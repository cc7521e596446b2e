// Command pdnscan runs the PDN customer detection pipeline (§III-C/D)
// over a generated corpus and prints Tables I-IV: potential and
// confirmed customers per provider, confirmed websites/apps with their
// reach, and the private PDN services discovered among generic WebRTC
// users.
//
// Usage:
//
//	pdnscan [-seed N] [-sites N] [-apps N] [-keys]
//	        [-workers N] [-checkpoint FILE] [-stats] [-trace FILE]
//
// -sites/-apps size the non-PDN background population; -keys also
// prints the API keys the §IV-B regex extraction recovered. The scan
// runs on the internal/dispatch worker pool: -workers sizes it
// (defaults to one per CPU and must be positive; the merged report is
// identical at any width), -checkpoint makes an interrupted scan
// resumable, and -stats prints
// the engine's job counters, latency quantiles (p50/p90/p99/max), and
// jobs/sec afterwards. -trace records every dispatch job as a span:
// ".jsonl" files get one trace event per line, anything else the Chrome
// trace-event JSON array that ui.perfetto.dev loads directly. Ctrl-C
// cancels the scan cleanly.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"

	"github.com/stealthy-peers/pdnsec"
	"github.com/stealthy-peers/pdnsec/internal/dispatch"
	"github.com/stealthy-peers/pdnsec/internal/obs"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	os.Exit(run(ctx, os.Args[1:], os.Stdout, os.Stderr))
}

func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("pdnscan", flag.ContinueOnError)
	fs.SetOutput(stderr)
	seed := fs.Int64("seed", 1, "corpus generation seed")
	sites := fs.Int("sites", 0, "filler (non-PDN) sites to scan (0 = default 1500)")
	apps := fs.Int("apps", 0, "filler (non-PDN) apps to scan (0 = default 800)")
	keys := fs.Bool("keys", false, "print extracted API keys")
	workers := fs.Int("workers", runtime.NumCPU(), "scan worker pool size (must be positive)")
	checkpoint := fs.String("checkpoint", "", "resumable scan state file (empty = no checkpointing)")
	stats := fs.Bool("stats", false, "print dispatch counters and latency quantiles after the scan")
	traceFile := fs.String("trace", "", "write a Perfetto-loadable trace of the scan to FILE (.jsonl for line-delimited)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *sites < 0 || *apps < 0 {
		fmt.Fprintf(stderr, "pdnscan: -sites and -apps must be non-negative (got -sites=%d -apps=%d)\n", *sites, *apps)
		fs.Usage()
		return 2
	}
	if *workers <= 0 {
		fmt.Fprintf(stderr, "pdnscan: -workers must be positive (got -workers=%d)\n", *workers)
		fs.Usage()
		return 2
	}

	metrics := dispatch.NewMetrics()
	var tracer *obs.Tracer
	if *traceFile != "" {
		tracer = obs.NewTracer(nil) // scan jobs run in process time
	}
	det, err := pdnsec.DetectCustomersParallel(ctx, *seed, *sites, *apps, pdnsec.DetectOptions{
		Workers:    *workers,
		Checkpoint: *checkpoint,
		Metrics:    metrics,
		Tracer:     tracer,
	})
	if err != nil {
		fmt.Fprintf(stderr, "pdnscan: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "scanned %d sites and %d APKs\n\n", det.Report.SitesScanned, det.Report.APKsScanned)
	fmt.Fprintln(stdout, det.RenderTableI())
	fmt.Fprintln(stdout, det.RenderTableII())
	fmt.Fprintln(stdout, det.RenderTableIII())
	fmt.Fprintln(stdout, det.RenderTableIV())
	fmt.Fprintln(stdout, det.RenderResourceSquattingWild())

	if *keys {
		fmt.Fprintf(stdout, "extracted API keys (%d):\n", len(det.Report.ExtractedKeys))
		for _, k := range det.Report.ExtractedKeys {
			fmt.Fprintf(stdout, "  %-12s %-28s %s\n", k.Provider, k.Domain, k.Key)
		}
	}
	if *stats {
		fmt.Fprintf(stdout, "dispatch: %s\n", metrics.Snapshot())
	}
	if tracer != nil {
		if err := tracer.WriteFile(*traceFile); err != nil {
			fmt.Fprintf(stderr, "pdnscan: trace: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "trace: %d events -> %s\n", tracer.Len(), *traceFile)
	}
	return 0
}
