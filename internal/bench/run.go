package bench

import (
	"context"
	"fmt"
	"math"
	"sort"
	"time"
)

// Options parameterizes one workload run.
type Options struct {
	// Seed drives provider.Options.Seed, viewer seeds and the TraceSet
	// seed; the program under test sees only generated inputs.
	Seed int64
	// Seconds is the total measured time, split evenly over the
	// repetitions (the timed ones, plus the traced one when Trace is
	// set). Signaling workloads are sized by population instead and
	// ignore it.
	Seconds float64
	// Reps is the number of timed repetitions, each on a fresh testbed.
	Reps int
	// Trace adds the traced repetition, which fills Result.PerLayer with
	// the workload's own layer split; RunCommonLayers supplies the rest.
	Trace bool
	// TraceDir, when set, keeps the traced repetition's raw
	// pdnsec-trace/1 JSONL and the probe spans there, so cmd/pdntrace can
	// re-analyse the capture without re-running.
	TraceDir string
	// Toy, when set, replaces the time-derived size (tests).
	Toy *Size
}

// Result is everything one workload run reports.
type Result struct {
	Workload  string `json:"workload"`
	Why       string `json:"why"`
	Correct   bool   `json:"correct"`
	Attempted int64  `json:"attempted"`
	Failed    int64  `json:"failed"`
	// MeasuredS is the summed length of the timed windows.
	MeasuredS float64          `json:"measured_s"`
	EndToEnd  map[string]Value `json:"end_to_end"`
	PerLayer  map[string]Value `json:"per_layer,omitempty"`
	// TraceFile names the kept capture, when Options.TraceDir was set.
	TraceFile string `json:"trace_file,omitempty"`
}

// RunWorkload runs the timed repetitions of one workload and, when
// opts.Trace is set, the traced repetition.
func RunWorkload(ctx context.Context, w Workload, opts Options) (*Result, error) {
	if opts.Reps < 1 {
		return nil, fmt.Errorf("bench: %s: need at least one repetition", w.Name)
	}
	size := Size{}
	if opts.Toy != nil {
		size = *opts.Toy
	} else {
		windows := opts.Reps
		if opts.Trace {
			windows++
		}
		size.Window = time.Duration(opts.Seconds / float64(windows) * float64(time.Second))
		if w.Signal == nil && size.Window <= 0 {
			return nil, fmt.Errorf("bench: %s: -seconds must be positive", w.Name)
		}
	}
	res := &Result{Workload: w.Name, Why: w.Why}

	if w.Signal != nil {
		var runs []*SignalRun
		for i := 0; i < opts.Reps; i++ {
			r, err := RunSignal(ctx, w, size, opts.Seed, nil)
			if err != nil {
				return nil, err
			}
			runs = append(runs, r)
			res.Attempted += r.Attempted()
			res.Failed += r.Failed()
			res.MeasuredS += r.RunS
		}
		res.EndToEnd = signalMetrics(runs)
		res.Correct = res.Failed == 0
		if opts.Trace {
			if err := traceSignal(ctx, w, size, opts, res); err != nil {
				return nil, err
			}
		}
		return res, nil
	}

	var runs []*ViewerRun
	for i := 0; i < opts.Reps; i++ {
		r, err := RunViewers(ctx, w, size, opts.Seed, nil)
		if err != nil {
			return nil, err
		}
		runs = append(runs, r)
		res.Attempted += int64(r.Attempted)
		res.Failed += int64(r.Failed)
		res.MeasuredS += r.WindowS
	}
	// A traced run gives part of its time to the traced repetition and
	// prints only per-layer metrics, so an end-to-end percentile it cannot
	// support reads 0 there instead of failing the run.
	e2e, err := viewerMetrics(w, runs, opts.Toy == nil && !opts.Trace)
	if err != nil {
		return nil, err
	}
	res.EndToEnd = e2e
	res.Correct = res.Failed == 0
	if opts.Trace {
		if err := traceViewers(ctx, w, size, opts, runs, res); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// viewerMetrics folds timed repetitions into the end-to-end metrics.
// Every repetition ran the same seed and inputs, so fine-grained samples
// are pooled: latency percentiles are read from all segment intervals and
// sessions, goodput and CPU cost are the median slice (viewer.go,
// sliceLen), and counts are summed before dividing. Set-up time is the
// median repetition. Each repetition's own reading is kept as spread.
// A percentile the pooled sample cannot support is an error when strict,
// and reads 0 otherwise (toy sizes).
func viewerMetrics(w Workload, runs []*ViewerRun, strict bool) (map[string]Value, error) {
	out := make(map[string]Value)
	var firstErr error
	pooled := func(name, unit string, q float64, f func(r *ViewerRun) []float64) {
		var all, reps []float64
		for _, r := range runs {
			xs := f(r)
			all = append(all, xs...)
			if len(xs) > 0 {
				reps = append(reps, xs[nearestRank(len(xs), q)])
			}
		}
		sort.Float64s(all)
		v, n, err := Quantile(all, q)
		if err != nil && strict && firstErr == nil {
			firstErr = fmt.Errorf("bench: %s: %s: %w (the run is too short for this machine)", w.Name, name, err)
		}
		out[name] = Value{Value: v, Unit: unit, N: n, Reps: reps}
	}
	summed := func(name, unit string, num, den func(r *ViewerRun) float64) {
		var n, d float64
		reps := make([]float64, len(runs))
		for i, r := range runs {
			n += num(r)
			d += den(r)
			reps[i] = ratio(num(r), den(r))
		}
		out[name] = Value{Value: ratio(n, d), Unit: unit, Reps: reps}
	}
	for _, r := range runs {
		if r.Segments == 0 {
			return nil, fmt.Errorf("bench: %s: a repetition played no segment inside its window", w.Name)
		}
	}
	segments := func(r *ViewerRun) float64 { return float64(r.Segments) }
	payload := func(r *ViewerRun) float64 { return float64(r.PayloadBytes) }

	setups := make([]float64, len(runs))
	for i, r := range runs {
		setups[i] = r.SetupS
	}
	out["setup_s"] = Value{Value: median(setups), Unit: "s", Reps: setups}
	pooled("goodput_mbps", "MB/s", 0.50, func(r *ViewerRun) []float64 { return r.SliceMBps })
	// The median cycle makes the rate robust to the rare session that
	// waits out a 5 s timeout (README, "Known ceilings").
	pooled("sessions_per_s", "1/s", 0.50, func(r *ViewerRun) []float64 { return r.SessionRate })
	pooled("startup_p50_ms", "ms", 0.50, func(r *ViewerRun) []float64 { return r.StartupMs })
	pooled("p2p_ready_p50_ms", "ms", 0.50, func(r *ViewerRun) []float64 { return r.P2PReadyMs })
	pooled("seg_p50_ms", "ms", 0.50, func(r *ViewerRun) []float64 { return r.SegMs })
	pooled("seg_p95_ms", "ms", 0.95, func(r *ViewerRun) []float64 { return r.SegMs })
	summed("allocs_per_seg", "count", func(r *ViewerRun) float64 { return float64(r.Mallocs) }, segments)
	summed("alloc_bytes_per_payload_byte", "B/B", func(r *ViewerRun) float64 { return float64(r.AllocBytes) }, payload)
	pooled("cpu_s_per_gb", "s/GB", 0.50, func(r *ViewerRun) []float64 { return r.SliceCPUPerG })
	summed("cdn_offload_ratio", "ratio", func(r *ViewerRun) float64 { return float64(r.P2PDown) },
		func(r *ViewerRun) float64 { return float64(r.P2PDown + r.CDNBytes) })
	summed("fail_ratio", "ratio", func(r *ViewerRun) float64 { return float64(r.Failed) },
		func(r *ViewerRun) float64 { return float64(r.Attempted) })
	return out, firstErr
}

func signalMetrics(runs []*SignalRun) map[string]Value {
	out := make(map[string]Value)
	rate := func(name, unit string, f func(r *SignalRun) float64) {
		reps := make([]float64, len(runs))
		for i, r := range runs {
			reps[i] = f(r)
		}
		out[name] = Value{Value: median(reps), Unit: unit, Reps: reps}
	}
	rate("setup_s", "s", func(r *SignalRun) float64 { return r.SetupS })
	rate("run_s", "s", func(r *SignalRun) float64 { return r.RunS })
	rate("signal_ops_per_s", "1/s", func(r *SignalRun) float64 { return float64(r.Ops()) / r.RunS })
	rate("match_p50_ms", "ms", func(r *SignalRun) float64 { return r.MatchP50Ms })
	rate("fail_ratio", "ratio", func(r *SignalRun) float64 { return float64(r.Failed()) / math.Max(1, float64(r.Attempted())) })
	v := out["match_p50_ms"]
	v.N = runs[0].MatchSamples
	out["match_p50_ms"] = v
	return out
}
