package bench

import (
	"encoding/json"
	"io"
	"time"
)

// harnessSpan is one span the harness recorded around a call into a
// layer: name, start, end, and the span that caused it (-1 for a root).
// Spans inside the program under test are obs's business; these cover
// the probe calls, which run outside any obs tracer.
type harnessSpan struct {
	Name   string
	Start  time.Time
	End    time.Time
	Parent int
}

// SpanLog keeps harness spans in memory until the run ends. It is used
// from one goroutine at a time (probes run sequentially).
type SpanLog struct {
	spans []harnessSpan
}

// Begin opens a span under parent and returns its index.
func (l *SpanLog) Begin(name string, parent int) int {
	l.spans = append(l.spans, harnessSpan{Name: name, Parent: parent, Start: time.Now()})
	return len(l.spans) - 1
}

// End closes span id and returns its duration.
func (l *SpanLog) End(id int) time.Duration {
	s := &l.spans[id]
	s.End = time.Now()
	return s.End.Sub(s.Start)
}

// WriteJSONL writes one object per span: {"id","name","parent","start_ns","dur_ns"}.
func (l *SpanLog) WriteJSONL(w io.Writer) error {
	enc := json.NewEncoder(w)
	for i, s := range l.spans {
		if err := enc.Encode(struct {
			ID      int    `json:"id"`
			Name    string `json:"name"`
			Parent  int    `json:"parent"`
			StartNs int64  `json:"start_ns"`
			DurNs   int64  `json:"dur_ns"`
		}{i, s.Name, s.Parent, s.Start.UnixNano(), s.End.Sub(s.Start).Nanoseconds()}); err != nil {
			return err
		}
	}
	return nil
}
