// Command pdnbench is the repository's benchmark: it runs named
// workloads against the real stack, prints every end-to-end metric by
// name with its unit, checks that what was played is correct, and — with
// -trace 1 — adds a traced repetition, the per-layer probes and the obs
// counters. internal/bench/README.md explains the workloads and metrics.
//
// Usage:
//
//	go run ./cmd/pdnbench -workload vod_deployed -seed 1 -seconds 15 -trace 0
//	go run ./cmd/pdnbench -trace 1 -json out.json -trace-dir captures   # all five workloads
//	go run ./cmd/pdnbench -compare base.json change.json
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics (the end-to-end metrics with
// -trace 0, the per-layer metrics with -trace 1).
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"

	"github.com/stealthy-peers/pdnsec/internal/bench"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	os.Exit(run(ctx, os.Args[1:], os.Stdout, os.Stderr))
}

func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("pdnbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		workload = fs.String("workload", "", "workload to run (default: all five)")
		seed     = fs.Int64("seed", 1, "seed for matching, viewers and trace identifiers")
		seconds  = fs.Float64("seconds", 15, "measured seconds per workload, split over its repetitions")
		trace    = fs.Int("trace", 0, "1 adds the traced repetition, probes and counters and prints the per-layer metrics")
		reps     = fs.Int("reps", 3, "timed repetitions per workload, each on a fresh testbed")
		jsonOut  = fs.String("json", "", "write the full report (every metric, repetition values, machine stamp) to this file")
		traceDir = fs.String("trace-dir", "", "keep the traced repetition's raw JSONL here for cmd/pdntrace")
		compare  = fs.Bool("compare", false, "compare two -json reports (base change) against the metric bounds")
	)
	fs.Usage = func() {
		fmt.Fprintln(stderr, "usage: pdnbench [flags] | pdnbench -compare base.json change.json")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		return runCompare(fs.Args(), stdout, stderr)
	}
	if fs.NArg() != 0 || (*trace != 0 && *trace != 1) || *reps < 1 {
		fs.Usage()
		return 2
	}

	workloads := bench.Workloads()
	if *workload != "" {
		w, ok := bench.WorkloadByName(*workload)
		if !ok {
			fmt.Fprintf(stderr, "pdnbench: unknown workload %q\n", *workload)
			return 2
		}
		workloads = []bench.Workload{w}
	}
	opts := bench.Options{
		Seed: *seed, Seconds: *seconds, Reps: *reps, Trace: *trace == 1,
		TraceDir: *traceDir,
	}
	report := bench.NewReport(opts)
	fmt.Fprintf(stdout, "pdnbench %s  go=%s gomaxprocs=%d cpu=%q commit=%s seed=%d reps=%d seconds=%g\n",
		report.Schema, report.GoVersion, report.GOMAXPROCS, report.CPUModel, report.Commit, opts.Seed, opts.Reps, opts.Seconds)
	var common map[string]bench.Value
	if opts.Trace {
		var err error
		if common, err = bench.RunCommonLayers(ctx, opts); err != nil {
			fmt.Fprintf(stderr, "pdnbench: %v\n", err)
			return 1
		}
	}
	for _, w := range workloads {
		res, err := bench.RunWorkload(ctx, w, opts)
		if err != nil {
			fmt.Fprintf(stderr, "pdnbench: %v\n", err)
			return 1
		}
		for name, v := range common {
			res.PerLayer[name] = v
		}
		report.Workloads = append(report.Workloads, res)
		res.WriteText(stdout)
		if err := writeResultLine(stdout, w, res, opts.Trace); err != nil {
			fmt.Fprintf(stderr, "pdnbench: %v\n", err)
			return 1
		}
	}
	if *jsonOut != "" {
		f, err := os.Create(*jsonOut)
		if err == nil {
			err = report.WriteJSON(f)
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}
		if err != nil {
			fmt.Fprintf(stderr, "pdnbench: write report: %v\n", err)
			return 1
		}
	}
	return 0
}

// writeResultLine prints the one-line JSON result: every end-to-end
// metric of the workload, or with traced every per-layer metric.
func writeResultLine(w io.Writer, wl bench.Workload, res *bench.Result, traced bool) error {
	type metric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	specs, values := bench.ViewerEndToEnd(), res.EndToEnd
	if wl.Signal != nil {
		specs = bench.SignalEndToEnd()
	}
	if traced {
		specs, values = bench.PerLayer(), res.PerLayer
	}
	metrics := make(map[string]metric, len(specs))
	for _, s := range specs {
		v, ok := values[s.Name]
		if !ok {
			return fmt.Errorf("%s did not report %s", res.Workload, s.Name)
		}
		metrics[s.Name] = metric{v.Value, v.Unit}
	}
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

func runCompare(paths []string, stdout, stderr io.Writer) int {
	if len(paths) != 2 {
		fmt.Fprintf(stderr, "pdnbench: -compare takes exactly two reports (base change), got %d\n", len(paths))
		return 2
	}
	base, err := bench.ReadReport(paths[0])
	if err != nil {
		fmt.Fprintf(stderr, "pdnbench: %v\n", err)
		return 2
	}
	change, err := bench.ReadReport(paths[1])
	if err != nil {
		fmt.Fprintf(stderr, "pdnbench: %v\n", err)
		return 2
	}
	if worse := bench.WriteRows(stdout, bench.Compare(base, change)); worse > 0 {
		fmt.Fprintf(stdout, "%d metric(s) worse\n", worse)
		return 1
	}
	return 0
}
