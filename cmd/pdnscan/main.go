// Command pdnscan runs the PDN customer detection pipeline (§III-C/D)
// over a generated corpus and prints Tables I-IV: potential and
// confirmed customers per provider, confirmed websites/apps with their
// reach, and the private PDN services discovered among generic WebRTC
// users.
//
// Usage:
//
//	pdnscan [-seed N] [-sites N] [-apps N] [-keys] [-trace FILE]
//
// -sites/-apps size the non-PDN background population; -keys also
// prints the API keys the §IV-B regex extraction recovered. The scan
// fans out over GOMAXPROCS goroutines and prints the same tables at
// any width. -trace records one detector_scan span per scan pass in a
// pdnsec-trace/1 JSONL file (pdntrace -chrome renders it for
// ui.perfetto.dev). Ctrl-C cancels the scan cleanly.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"

	"github.com/stealthy-peers/pdnsec"
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
	traceFile := fs.String("trace", "", "write a pdnsec-trace/1 JSONL trace of the scan to FILE (pdntrace -chrome renders it for Perfetto)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *sites < 0 || *apps < 0 {
		fmt.Fprintf(stderr, "pdnscan: -sites and -apps must be non-negative (got -sites=%d -apps=%d)\n", *sites, *apps)
		fs.Usage()
		return 2
	}

	var tracer *obs.Tracer
	if *traceFile != "" {
		tracer = obs.NewTracer(nil) // the scan runs in process time
		ctx = obs.WithTracer(ctx, tracer)
	}
	det, err := pdnsec.DetectCustomers(ctx, *seed, *sites, *apps)
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
	if tracer != nil {
		if err := tracer.WriteFile(*traceFile); err != nil {
			fmt.Fprintf(stderr, "pdnscan: trace: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "trace: %d events -> %s\n", tracer.Len(), *traceFile)
	}
	return 0
}
