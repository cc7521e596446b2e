// Command experiments regenerates every table and figure in the
// paper's evaluation (Tables I-VI, Figures 4-5, and the §IV-§VI
// free-riding, IP-leak, defense, and eCDN results) and writes the
// combined report to stdout. EXPERIMENTS.md's measured numbers come
// from this command.
//
// Usage:
//
//	experiments [-seed N] [-timeout 15m] [-trace FILE]
//
// -trace records each experiment section as a span in a pdnsec-trace/1
// JSONL file (pdntrace -chrome renders it for ui.perfetto.dev). Tracing
// never changes the report — the experiments read only their own
// injected clocks.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"time"

	"github.com/stealthy-peers/pdnsec"
	"github.com/stealthy-peers/pdnsec/internal/obs"
)

func main() {
	os.Exit(run())
}

func run() int {
	seed := flag.Int64("seed", 42, "experiment seed")
	timeout := flag.Duration("timeout", 15*time.Minute, "overall timeout")
	traceFile := flag.String("trace", "", "write a pdnsec-trace/1 JSONL trace of the run to FILE (pdntrace -chrome renders it for Perfetto)")
	flag.Parse()

	ctx, cancel := context.WithTimeout(context.Background(), *timeout)
	defer cancel()

	var tracer *obs.Tracer
	if *traceFile != "" {
		tracer = obs.NewTracer(nil) // sections run in process time
		ctx = obs.WithTracer(ctx, tracer)
	}

	if err := pdnsec.Reproduce(ctx, os.Stdout, *seed); err != nil {
		fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
		return 1
	}
	if tracer != nil {
		if err := tracer.WriteFile(*traceFile); err != nil {
			fmt.Fprintf(os.Stderr, "experiments: trace: %v\n", err)
			return 1
		}
		fmt.Fprintf(os.Stderr, "trace: %d events -> %s\n", tracer.Len(), *traceFile)
	}
	return 0
}
