// Package traceview is the offline trace-stitching engine behind
// cmd/pdntrace. It merges pdnsec-trace/1 JSONL files written by any
// number of processes (viewers, signaling servers, the CDN), reassembles
// span trees by trace ID, and reports what the swarm actually did: the
// critical path of a segment fetch, per-hop latency percentiles, the
// slowest traces rendered as trees, and the bookkeeping that tells you
// whether the stitching is trustworthy (orphaned parents, malformed
// lines, clock skew between processes).
//
// The engine is deliberately tolerant: a truncated tail line, an
// unparseable record, or a span whose parent never made it into any
// file is counted and carried — never a reason to abort. Trace files
// come from chaos runs and crashed processes; partial data is the
// normal case, not the exception.
package traceview

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strconv"

	"github.com/stealthy-peers/pdnsec/internal/obs"
)

// maxLineBytes bounds one JSONL line (a span with large args).
const maxLineBytes = 1 << 20

// Rec is one parsed trace record: a complete span (Phase "X") or an
// instant event (Phase "i") annotating its parent span.
type Rec struct {
	Name   string
	Proc   string
	Phase  string
	TS     int64 // microseconds, absolute in the writing clock domain
	Dur    int64 // microseconds (spans only)
	Trace  uint64
	Span   uint64
	Parent uint64
	Args   map[string]any
}

// End returns the record's end timestamp (TS for instants).
func (r Rec) End() int64 { return r.TS + r.Dur }

// ParseStats accounts for what a load pass had to tolerate.
type ParseStats struct {
	Lines     int // total non-empty lines seen
	Headers   int // schema metadata lines
	Malformed int // unparseable or wrong-schema lines (incl. truncated tails)
	Untraced  int // well-formed records outside any trace (no trace ID)
}

// jsonlLine mirrors the pdnsec-trace/1 wire form (see obs.jsonlLine).
type jsonlLine struct {
	Name   string         `json:"name"`
	Ph     string         `json:"ph"`
	TS     int64          `json:"ts"`
	Dur    int64          `json:"dur"`
	Proc   string         `json:"proc"`
	Trace  string         `json:"trace"`
	Span   string         `json:"span"`
	Parent string         `json:"parent"`
	Args   map[string]any `json:"args"`
}

// Parse reads one pdnsec-trace/1 JSONL stream. Records outside any
// trace are counted but not returned — the stitcher has no use for
// them. A final truncated line (a process killed mid-write) counts as
// malformed, like any other garbage.
func Parse(r io.Reader) ([]Rec, ParseStats, error) {
	var recs []Rec
	var st ParseStats
	proc := "" // most recent header's process, stamped on proc-less lines
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), maxLineBytes)
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		st.Lines++
		var jl jsonlLine
		if err := json.Unmarshal(line, &jl); err != nil {
			st.Malformed++
			continue
		}
		if jl.Ph == "M" {
			if jl.Name != "pdnsec_trace_schema" {
				continue // foreign metadata: ignore
			}
			schema, _ := jl.Args["schema"].(string)
			if schema != obs.TraceSchema {
				st.Malformed++
				continue
			}
			st.Headers++
			if p, ok := jl.Args["proc"].(string); ok {
				proc = p
			}
			continue
		}
		if jl.Ph != "X" && jl.Ph != "i" {
			st.Malformed++
			continue
		}
		rec := Rec{
			Name:  jl.Name,
			Proc:  jl.Proc,
			Phase: jl.Ph,
			TS:    jl.TS,
			Dur:   jl.Dur,
			Args:  jl.Args,
		}
		if rec.Proc == "" {
			rec.Proc = proc
		}
		var bad bool
		rec.Trace, bad = parseHexID(jl.Trace, bad)
		rec.Span, bad = parseHexID(jl.Span, bad)
		rec.Parent, bad = parseHexID(jl.Parent, bad)
		if bad {
			st.Malformed++
			continue
		}
		if rec.Trace == 0 {
			st.Untraced++
			continue
		}
		recs = append(recs, rec)
	}
	if err := sc.Err(); err != nil {
		if err == bufio.ErrTooLong {
			st.Malformed++
			return recs, st, nil
		}
		return recs, st, err
	}
	return recs, st, nil
}

// parseHexID decodes one 16-hex-digit identifier ("" means unset).
func parseHexID(s string, bad bool) (uint64, bool) {
	if s == "" {
		return 0, bad
	}
	v, err := strconv.ParseUint(s, 16, 64)
	if err != nil {
		return 0, true
	}
	return v, bad
}

// LoadFiles parses every named file and merges the records. Per-file
// stats are summed; a file that cannot be opened is an error (a missing
// trace file is an operator mistake, not data loss to tolerate).
func LoadFiles(paths []string) ([]Rec, ParseStats, error) {
	var all []Rec
	var total ParseStats
	for _, path := range paths {
		f, err := os.Open(path)
		if err != nil {
			return nil, total, fmt.Errorf("traceview: %w", err)
		}
		recs, st, err := Parse(f)
		f.Close()
		if err != nil {
			return nil, total, fmt.Errorf("traceview: %s: %w", path, err)
		}
		all = append(all, recs...)
		total.Lines += st.Lines
		total.Headers += st.Headers
		total.Malformed += st.Malformed
		total.Untraced += st.Untraced
	}
	return all, total, nil
}
