package bench

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"github.com/stealthy-peers/pdnsec/internal/obs"
	"github.com/stealthy-peers/pdnsec/internal/traceview"
)

// TraceSplit is a capture read layer by layer.
type TraceSplit struct {
	Spans   int
	Orphans int
	// Unmapped lists span names layers.go does not know, sorted.
	Unmapped []string

	selfUs   map[string][]float64 // layer → self time of each of its spans
	critUs   map[string]float64   // layer → time on segment traces' critical paths
	byNameUs map[string][]float64 // span name → durations
}

// SplitTrace stitches a capture and attributes every span to a layer.
// A span's self time is its duration minus the part of that interval
// its child spans cover. A layer's critical time is summed over the
// critical path of every trace rooted at a segment span: each span on
// the path contributes its duration minus what the next span on the
// path covers, so one trace's contributions add up to its root's
// duration.
func SplitTrace(recs []traceview.Rec, parse traceview.ParseStats) *TraceSplit {
	a := traceview.Stitch(recs, parse)
	ts := &TraceSplit{
		Spans:    a.Spans,
		Orphans:  a.Orphans,
		selfUs:   make(map[string][]float64),
		critUs:   make(map[string]float64),
		byNameUs: make(map[string][]float64),
	}
	unmapped := make(map[string]bool)
	var walk func(n *traceview.Node)
	walk = func(n *traceview.Node) {
		layer := LayerOf(n.Rec.Name)
		if layer == "" {
			unmapped[n.Rec.Name] = true
		}
		ts.selfUs[layer] = append(ts.selfUs[layer], float64(n.Rec.Dur-covered(n, n.Children)))
		ts.byNameUs[n.Rec.Name] = append(ts.byNameUs[n.Rec.Name], float64(n.Rec.Dur))
		for _, c := range n.Children {
			walk(c)
		}
	}
	for _, t := range a.Traces {
		for _, r := range t.Roots {
			walk(r)
		}
		if root := t.Root(); root == nil || root.Rec.Name != "segment" {
			continue
		}
		path := t.CriticalPath()
		for i, n := range path {
			own := n.Rec.Dur
			if i+1 < len(path) {
				own -= covered(n, path[i+1:i+2])
			}
			ts.critUs[LayerOf(n.Rec.Name)] += float64(own)
		}
	}
	for name := range unmapped {
		ts.Unmapped = append(ts.Unmapped, name)
	}
	sort.Strings(ts.Unmapped)
	return ts
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's own interval.
func covered(parent *traceview.Node, children []*traceview.Node) int64 {
	type iv struct{ from, to int64 }
	ivs := make([]iv, 0, len(children))
	for _, c := range children {
		from, to := c.Rec.TS, c.Rec.End()
		if from < parent.Rec.TS {
			from = parent.Rec.TS
		}
		if to > parent.Rec.End() {
			to = parent.Rec.End()
		}
		if to > from {
			ivs = append(ivs, iv{from, to})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].from < ivs[j].from })
	var total, end int64
	for i, v := range ivs {
		if i == 0 || v.from > end {
			total += v.to - v.from
			end = v.to
		} else if v.to > end {
			total += v.to - end
			end = v.to
		}
	}
	return total
}

// metrics renders the split as trace.<layer>.* per-layer metrics.
func (ts *TraceSplit) metrics(segments float64, out map[string]Value) {
	var critTotal float64
	for _, v := range ts.critUs {
		critTotal += v
	}
	for _, layer := range Layers() {
		self := ts.selfUs[layer]
		pre := "trace." + layer + "."
		out[pre+"self_us_p50"] = Value{Value: quantileOr0(self, 0.50), Unit: "us", N: len(self)}
		out[pre+"self_us_p99"] = Value{Value: quantileOr0(self, 0.99), Unit: "us", N: len(self)}
		out[pre+"spans_per_seg"] = Value{Value: ratio(float64(len(self)), segments), Unit: "count"}
		out[pre+"critical_share"] = Value{Value: ratio(ts.critUs[layer], critTotal), Unit: "ratio"}
	}
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// capture parses what the traced repetition recorded and, when dir is
// set, keeps the raw JSONL there.
func capture(set *obs.TraceSet, dir, name string) (*TraceSplit, string, error) {
	var buf bytes.Buffer
	if err := set.WriteJSONL(&buf); err != nil {
		return nil, "", fmt.Errorf("bench: write capture: %w", err)
	}
	file := ""
	if dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, "", fmt.Errorf("bench: trace dir: %w", err)
		}
		file = filepath.Join(dir, name+".jsonl")
		if err := os.WriteFile(file, buf.Bytes(), 0o644); err != nil {
			return nil, "", fmt.Errorf("bench: keep capture: %w", err)
		}
	}
	recs, st, err := traceview.Parse(&buf)
	if err != nil {
		return nil, "", fmt.Errorf("bench: parse capture: %w", err)
	}
	return SplitTrace(recs, st), file, nil
}

// counters reads the count.* metrics from the traced repetition's
// registry and returns how many segments its peers played. Like the
// capture, the registry covers the whole repetition, warm-up included.
func counters(reg *obs.Registry, out map[string]Value) (played float64) {
	c := func(counter *obs.Counter) float64 { return float64(counter.Value()) }
	hits, misses := c(reg.Counter("pdn_cache_hits_total", "")), c(reg.Counter("pdn_cache_misses_total", ""))
	p2p, fallbacks := c(reg.Counter("pdn_segments_p2p_total", "")), c(reg.Counter("pdn_cdn_fallbacks_total", ""))
	played = p2p + c(reg.Counter("pdn_segments_cdn_total", ""))
	out["count.cache_hit_ratio"] = Value{Value: ratio(hits, hits+misses), Unit: "ratio"}
	out["count.cdn_fallback_ratio"] = Value{Value: ratio(fallbacks, p2p+fallbacks), Unit: "ratio"}
	out["count.match_requests_per_seg"] = Value{Value: ratio(c(reg.Counter("signal_match_requests_total", "")), played), Unit: "count"}
	out["count.neighbors_evicted"] = Value{Value: c(reg.Counter("pdn_neighbors_evicted_total", "")), Unit: "count"}
	out["count.relay_drops"] = Value{Value: c(reg.Counter("signal_relay_drops_total", "")), Unit: "count"}
	out["count.secure_handshake_fails"] = Value{Value: c(reg.Counter("pdn_secure_handshake_fails_total", "")), Unit: "count"}
	out["count.stalls"] = Value{Value: c(reg.Counter("pdn_stalls_total", "")), Unit: "count"}
	return played
}

// RunCommonLayers measures the part of the per-layer section that does
// not depend on the workload — the probes and signal_20k's shape at a
// tenth of its population — once per invocation; the caller merges it
// into every traced result.
func RunCommonLayers(ctx context.Context, opts Options) (map[string]Value, error) {
	spans := &SpanLog{}
	budget := probeBudget
	if opts.Toy != nil {
		budget = probeToyBudget
	}
	out, err := RunProbes(ctx, opts.Seed, budget, spans)
	if err != nil {
		return nil, err
	}
	if opts.TraceDir != "" {
		var buf bytes.Buffer
		if err := spans.WriteJSONL(&buf); err != nil {
			return nil, fmt.Errorf("bench: probe spans: %w", err)
		}
		if err := os.MkdirAll(opts.TraceDir, 0o755); err != nil {
			return nil, fmt.Errorf("bench: trace dir: %w", err)
		}
		if err := os.WriteFile(filepath.Join(opts.TraceDir, "probe_spans.jsonl"), buf.Bytes(), 0o644); err != nil {
			return nil, fmt.Errorf("bench: keep probe spans: %w", err)
		}
	}
	load, _ := WorkloadByName("signal_20k")
	size := Size{PeersPerSwarm: load.Signal.PeersPerSwarm / 10}
	if opts.Toy != nil {
		size = *opts.Toy
	}
	sr, err := RunSignal(ctx, load, size, opts.Seed, nil)
	if err != nil {
		return nil, err
	}
	out["signal.load_ops_per_s"] = Value{Value: float64(sr.Ops()) / sr.RunS, Unit: "1/s"}
	out["signal.load_match_p50_ms"] = Value{Value: sr.MatchP50Ms, Unit: "ms", N: sr.MatchSamples}
	return out, nil
}

// layerSplit reads the traced repetition's capture and registry into
// the per-layer metrics every workload has: trace.*, count.* and the
// span bookkeeping.
func layerSplit(w Workload, ins *Instruments, opts Options, res *Result) (*TraceSplit, map[string]Value, error) {
	split, file, err := capture(ins.Traces, opts.TraceDir, w.Name)
	if err != nil {
		return nil, nil, err
	}
	res.TraceFile = file
	if len(split.Unmapped) > 0 {
		return nil, nil, fmt.Errorf("bench: %s: span names without a layer in layers.go: %v", w.Name, split.Unmapped)
	}
	out := make(map[string]Value)
	segments := counters(ins.Obs, out)
	split.metrics(segments, out)
	out["obs.spans_per_seg"] = Value{Value: ratio(float64(split.Spans), segments), Unit: "count"}
	out["obs.orphan_spans"] = Value{Value: float64(split.Orphans), Unit: "count"}
	res.Correct = res.Failed == 0 && split.Orphans == 0
	return split, out, nil
}

// traceViewers adds the traced repetition of a viewer workload and
// fills res.PerLayer with the workload's own layer split.
func traceViewers(ctx context.Context, w Workload, size Size, opts Options, timed []*ViewerRun, res *Result) error {
	ins := &Instruments{Obs: obs.NewRegistry(), Traces: obs.NewTraceSet(nil, opts.Seed)}
	tr, err := RunViewers(ctx, w, size, opts.Seed, ins)
	if err != nil {
		return err
	}
	res.Attempted += int64(tr.Attempted)
	res.Failed += int64(tr.Failed)
	split, out, err := layerSplit(w, ins, opts, res)
	if err != nil {
		return err
	}
	out["count.cdn_offload_ratio"] = Value{Value: tr.OffloadRatio(), Unit: "ratio"}
	// Whole-window rates on both sides: one traced window is too short for
	// the median-slice goodput.
	var payload, window float64
	for _, r := range timed {
		payload += float64(r.PayloadBytes)
		window += r.WindowS
	}
	untraced, traced := ratio(payload, window), ratio(float64(tr.PayloadBytes), tr.WindowS)
	out["obs.trace_overhead_pct"] = Value{Value: (ratio(untraced, traced) - 1) * 100, Unit: "%"}

	var sessionMs, teardownMs, segMs []float64
	for _, r := range timed {
		sessionMs = append(sessionMs, r.SessionMs...)
		teardownMs = append(teardownMs, r.TeardownMs...)
		segMs = append(segMs, r.SegMs...)
	}
	q := func(name, unit string, xs []float64, p float64) {
		out[name] = Value{Value: quantileOr0(xs, p), Unit: unit, N: len(xs)}
	}
	q("pdnclient.session_ms_p50", "ms", sessionMs, 0.50)
	q("pdnclient.teardown_ms_p50", "ms", teardownMs, 0.50)
	q("pdnclient.seg_p99_ms", "ms", segMs, 0.99)
	q("pdnclient.seg_p999_ms", "ms", segMs, 0.999)
	q("pdnclient.fetch_p2p_us_p50", "us", split.byNameUs["p2p_request"], 0.50)
	q("pdnclient.fetch_cdn_us_p50", "us", split.byNameUs["cdn_fetch"], 0.50)
	res.PerLayer = out
	return nil
}

// traceSignal is traceViewers for the signaling-plane workload: no
// segments are played, so the per-segment and pdnclient metrics read 0.
func traceSignal(ctx context.Context, w Workload, size Size, opts Options, res *Result) error {
	ins := &Instruments{Obs: obs.NewRegistry(), Traces: obs.NewTraceSet(nil, opts.Seed)}
	tr, err := RunSignal(ctx, w, size, opts.Seed, ins)
	if err != nil {
		return err
	}
	res.Attempted += tr.Attempted()
	res.Failed += tr.Failed()
	_, out, err := layerSplit(w, ins, opts, res)
	if err != nil {
		return err
	}
	out["count.cdn_offload_ratio"] = Value{Unit: "ratio"}
	out["obs.trace_overhead_pct"] = Value{Value: (ratio(tr.RunS, res.EndToEnd["run_s"].Value) - 1) * 100, Unit: "%"}
	for _, name := range []string{"session_ms_p50", "teardown_ms_p50", "seg_p99_ms", "seg_p999_ms"} {
		out["pdnclient."+name] = Value{Unit: "ms"}
	}
	for _, name := range []string{"fetch_p2p_us_p50", "fetch_cdn_us_p50"} {
		out["pdnclient."+name] = Value{Unit: "us"}
	}
	res.PerLayer = out
	return nil
}
