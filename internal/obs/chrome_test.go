package obs_test

import (
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/stealthy-peers/pdnsec/internal/obs"
	"github.com/stealthy-peers/pdnsec/internal/traceview"
)

// TestWriteChromeValidJSON: a tracer's JSONL file, rendered the way
// `pdntrace -chrome` renders it, is a valid Chrome trace-event array
// holding every span and span event the tracer recorded.
func TestWriteChromeValidJSON(t *testing.T) {
	var mu sync.Mutex
	clock := time.Unix(1000, 0)
	now := func() time.Time {
		mu.Lock()
		defer mu.Unlock()
		clock = clock.Add(time.Millisecond)
		return clock
	}
	tr := obs.NewTracerSeeded(now, "viewer", 1)
	for i := 0; i < 5; i++ {
		sp := tr.Begin("segment", obs.A("idx", i))
		if i == 0 {
			sp.Event("slow_start_exit")
		}
		sp.End(obs.A("source", "cdn"))
	}
	var jsonl strings.Builder
	if err := tr.WriteJSONL(&jsonl); err != nil {
		t.Fatal(err)
	}
	recs, st, err := traceview.Parse(strings.NewReader(jsonl.String()))
	if err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	if err := traceview.WriteChrome(&out, traceview.Stitch(recs, st)); err != nil {
		t.Fatal(err)
	}

	var arr []map[string]any
	if err := json.Unmarshal([]byte(out.String()), &arr); err != nil {
		t.Fatalf("chrome output is not valid JSON: %v\n%s", err, out.String())
	}
	phases := make(map[string]int)
	for _, ev := range arr {
		phases[ev["ph"].(string)]++
		switch ev["ph"] {
		case "M":
			if ev["name"] != "process_name" || ev["args"].(map[string]any)["name"] != "viewer" {
				t.Fatalf("metadata record is not the tracer's process: %v", ev)
			}
		case "X":
			if ev["name"] != "segment" {
				t.Fatalf("unexpected span %v", ev)
			}
			if ev["dur"].(float64) <= 0 {
				t.Fatalf("span with non-positive dur: %v", ev)
			}
		case "i":
			if ev["name"] != "slow_start_exit" || ev["s"] != "t" {
				t.Fatalf("unexpected instant %v", ev)
			}
		default:
			t.Fatalf("unexpected phase %v", ev["ph"])
		}
		if ev["pid"].(float64) != 1 {
			t.Fatalf("pid = %v", ev["pid"])
		}
	}
	if phases["M"] != 1 || phases["X"] != 5 || phases["i"] != 1 {
		t.Fatalf("phases = %v, want one process record, 5 spans and 1 instant", phases)
	}
}
