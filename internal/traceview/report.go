package traceview

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"

	"github.com/stealthy-peers/pdnsec/internal/obs"
)

// Hop types pdntrace decomposes latency into. Classification keys on
// the span-name prefixes the obsnames lint pins to literals.
const (
	HopSignal   = "signal"
	HopP2P      = "p2p-transfer"
	HopDTLS     = "dtls-handshake"
	HopCDN      = "cdn-fallback"
	HopPlayback = "playback"
	HopOther    = "other"
)

// HopType classifies a span name.
func HopType(name string) string {
	switch {
	case name == "dtls_handshake":
		return HopDTLS
	case strings.HasPrefix(name, "signal_") || name == "peer_join":
		return HopSignal
	case strings.HasPrefix(name, "p2p_"):
		return HopP2P
	case strings.HasPrefix(name, "cdn_"):
		return HopCDN
	case name == "segment":
		return HopPlayback
	default:
		return HopOther
	}
}

// LatencyStats summarizes one span name or hop type across an analysis.
type LatencyStats struct {
	Key   string `json:"key"`
	Count int    `json:"count"`
	P50   int64  `json:"p50_us"`
	P90   int64  `json:"p90_us"`
	P99   int64  `json:"p99_us"`
	Max   int64  `json:"max_us"`
}

// TraceSummary is one trace's line in the slowest-traces table.
type TraceSummary struct {
	ID       string   `json:"id"`
	Root     string   `json:"root"`
	Duration int64    `json:"duration_us"`
	Spans    int      `json:"spans"`
	Procs    []string `json:"procs"`
	Stitched bool     `json:"fully_stitched"`
}

// Summary is the machine-readable report (pdntrace -json), also the
// unit -diff compares.
type Summary struct {
	Schema    string `json:"schema"`
	Files     int    `json:"files"`
	Lines     int    `json:"lines"`
	Malformed int    `json:"malformed_lines"`
	Untraced  int    `json:"untraced_records"`

	Traces      int `json:"traces"`
	Spans       int `json:"spans"`
	Events      int `json:"events"`
	Orphans     int `json:"orphan_spans"`
	LooseEvents int `json:"loose_events"`

	// MultiProcTraces counts traces whose spans came from ≥2 distinct
	// processes; SegmentTraces those rooted at a segment fetch; and
	// SegmentMaxProcs the widest process spread any fully-stitched
	// segment trace achieved — the number CI gates on (≥3 means client,
	// server, and a second party all landed in one tree).
	MultiProcTraces int `json:"multi_proc_traces"`
	SegmentTraces   int `json:"segment_traces"`
	SegmentMaxProcs int `json:"segment_max_procs"`

	ByName  []LatencyStats `json:"by_name"`
	ByHop   []LatencyStats `json:"by_hop"`
	Slowest []TraceSummary `json:"slowest"`
}

// Summarize computes the full report. topK bounds the slowest-traces
// table (<=0 means 5).
func Summarize(a *Analysis, files, topK int) *Summary {
	if topK <= 0 {
		topK = 5
	}
	s := &Summary{
		Schema:      Schema,
		Files:       files,
		Lines:       a.Parse.Lines,
		Malformed:   a.Parse.Malformed,
		Untraced:    a.Parse.Untraced,
		Traces:      len(a.Traces),
		Spans:       a.Spans,
		Events:      a.Events,
		Orphans:     a.Orphans,
		LooseEvents: a.LooseEvents,
	}
	byName := make(map[string][]int64)
	byHop := make(map[string][]int64)
	var walk func(n *Node)
	walk = func(n *Node) {
		byName[n.Rec.Name] = append(byName[n.Rec.Name], n.Rec.Dur)
		hop := HopType(n.Rec.Name)
		byHop[hop] = append(byHop[hop], n.Rec.Dur)
		for _, c := range n.Children {
			walk(c)
		}
	}
	for _, t := range a.Traces {
		if len(t.Procs) >= 2 {
			s.MultiProcTraces++
		}
		root := t.Root()
		if root != nil && root.Rec.Name == "segment" {
			s.SegmentTraces++
			if t.FullyStitched() && len(t.Procs) > s.SegmentMaxProcs {
				s.SegmentMaxProcs = len(t.Procs)
			}
		}
		for _, r := range t.Roots {
			walk(r)
		}
	}
	s.ByName = latencyTable(byName)
	s.ByHop = latencyTable(byHop)

	ranked := append([]*Trace(nil), a.Traces...)
	sort.SliceStable(ranked, func(i, j int) bool {
		if ranked[i].Duration() != ranked[j].Duration() {
			return ranked[i].Duration() > ranked[j].Duration()
		}
		return ranked[i].ID < ranked[j].ID
	})
	if len(ranked) > topK {
		ranked = ranked[:topK]
	}
	for _, t := range ranked {
		rootName := ""
		if r := t.Root(); r != nil {
			rootName = r.Rec.Name
		}
		s.Slowest = append(s.Slowest, TraceSummary{
			ID:       fmt.Sprintf("%016x", t.ID),
			Root:     rootName,
			Duration: t.Duration(),
			Spans:    t.Spans,
			Procs:    t.Procs,
			Stitched: t.FullyStitched(),
		})
	}
	return s
}

func latencyTable(m map[string][]int64) []LatencyStats {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]LatencyStats, 0, len(keys))
	for _, k := range keys {
		durs := m[k]
		sort.Slice(durs, func(i, j int) bool { return durs[i] < durs[j] })
		out = append(out, LatencyStats{
			Key:   k,
			Count: len(durs),
			P50:   obs.Quantile(durs, 0.50),
			P90:   obs.Quantile(durs, 0.90),
			P99:   obs.Quantile(durs, 0.99),
			Max:   durs[len(durs)-1],
		})
	}
	return out
}

// WriteJSON emits the summary as indented JSON.
func (s *Summary) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}

// WriteText renders the human report: totals, hop and name breakdowns,
// then the slowest traces as trees.
func WriteText(w io.Writer, a *Analysis, s *Summary) error {
	fmt.Fprintf(w, "files %d  lines %d  traces %d  spans %d  events %d\n",
		s.Files, s.Lines, s.Traces, s.Spans, s.Events)
	fmt.Fprintf(w, "stitching: %d multi-process traces, %d orphan spans, %d loose events, %d malformed lines, %d untraced records\n",
		s.MultiProcTraces, s.Orphans, s.LooseEvents, s.Malformed, s.Untraced)
	if s.SegmentTraces > 0 {
		fmt.Fprintf(w, "segment traces: %d (widest fully-stitched spread: %d processes)\n",
			s.SegmentTraces, s.SegmentMaxProcs)
	}
	fmt.Fprintf(w, "\nlatency by hop type (us):\n")
	writeTable(w, s.ByHop)
	fmt.Fprintf(w, "\nlatency by span name (us):\n")
	writeTable(w, s.ByName)
	if len(s.Slowest) > 0 {
		fmt.Fprintf(w, "\nslowest traces:\n")
		for _, ts := range s.Slowest {
			t, ok := a.traceByHexID(ts.ID)
			if !ok {
				continue
			}
			fmt.Fprintf(w, "\ntrace %s  %dus  %d spans  procs: %s",
				ts.ID, ts.Duration, ts.Spans, strings.Join(ts.Procs, ","))
			if !ts.Stitched {
				fmt.Fprintf(w, "  [INCOMPLETE: %d orphans, %d loose events]", t.Orphans, t.LooseEvents)
			}
			fmt.Fprintln(w)
			RenderTree(w, t)
			cp := t.CriticalPath()
			if len(cp) > 1 {
				names := make([]string, len(cp))
				for i, n := range cp {
					names[i] = fmt.Sprintf("%s(%dus)", n.Rec.Name, n.Rec.Dur)
				}
				fmt.Fprintf(w, "  critical path: %s\n", strings.Join(names, " -> "))
			}
		}
	}
	return nil
}

func (a *Analysis) traceByHexID(hex string) (*Trace, bool) {
	var id uint64
	if _, err := fmt.Sscanf(hex, "%016x", &id); err != nil {
		return nil, false
	}
	return a.TraceByID(id)
}

func writeTable(w io.Writer, rows []LatencyStats) {
	fmt.Fprintf(w, "  %-28s %7s %9s %9s %9s %9s\n", "key", "count", "p50", "p90", "p99", "max")
	for _, r := range rows {
		fmt.Fprintf(w, "  %-28s %7d %9d %9d %9d %9d\n", r.Key, r.Count, r.P50, r.P90, r.P99, r.Max)
	}
}

// RenderTree draws one trace's forest with box-drawing guides. Span
// lines show name, recording process, duration, and offset from the
// trace start; instant events render as leaf annotations.
func RenderTree(w io.Writer, t *Trace) {
	for _, r := range t.Roots {
		renderNode(w, t, r, "  ", true, len(t.Roots) == 1)
	}
}

func renderNode(w io.Writer, t *Trace, n *Node, prefix string, last, only bool) {
	connector := "├─ "
	childPrefix := prefix + "│  "
	if last {
		connector = "└─ "
		childPrefix = prefix + "   "
	}
	if only && prefix == "  " {
		connector = ""
		childPrefix = prefix
	}
	mark := ""
	if n.Orphan {
		mark = " [orphan]"
	}
	fmt.Fprintf(w, "%s%s%s (%s) %dus @+%dus%s\n",
		prefix, connector, n.Rec.Name, n.Rec.Proc, n.Rec.Dur, n.Rec.TS-t.Start, mark)
	items := len(n.Events) + len(n.Children)
	i := 0
	for _, ev := range n.Events {
		i++
		evConn := "├· "
		if i == items {
			evConn = "└· "
		}
		fmt.Fprintf(w, "%s%s%s (%s) @+%dus\n", childPrefix, evConn, ev.Name, ev.Proc, ev.TS-t.Start)
	}
	for _, c := range n.Children {
		i++
		renderNode(w, t, c, childPrefix, i == items, false)
	}
}
