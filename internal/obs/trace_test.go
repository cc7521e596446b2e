package obs

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

// fakeClock is a deterministic injectable clock advancing 1ms per read.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock {
	return &fakeClock{t: time.Unix(1000, 0)}
}

func (c *fakeClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.t = c.t.Add(time.Millisecond)
	return c.t
}

func TestTracerSpansAndEvents(t *testing.T) {
	tr := NewTracer(newFakeClock().now)
	sp := tr.Begin("dispatch_job", A("key", "k1"))
	sp.End(A("ok", true))
	tr.Event("stall", A("idx", 3))
	if got := tr.Len(); got != 2 {
		t.Fatalf("Len = %d, want 2", got)
	}
	events := tr.drainSorted()
	if events[0].name != "dispatch_job" || events[0].phase != 'X' {
		t.Fatalf("first event = %+v", events[0])
	}
	if events[0].dur != int64(time.Millisecond) {
		t.Fatalf("span dur = %d, want 1ms", events[0].dur)
	}
	if len(events[0].args) != 2 || events[0].args[1].Key != "ok" {
		t.Fatalf("span args = %+v", events[0].args)
	}
	if events[1].name != "stall" || events[1].phase != 'i' {
		t.Fatalf("second event = %+v", events[1])
	}
}

func TestNilTracer(t *testing.T) {
	var tr *Tracer
	sp := tr.Begin("x")
	sp.End()
	tr.Event("y")
	if tr.Len() != 0 {
		t.Fatal("nil tracer buffered events")
	}
	var sb strings.Builder
	if err := tr.WriteJSONL(&sb); err != nil || sb.Len() != 0 {
		t.Fatalf("nil tracer wrote %q, %v", sb.String(), err)
	}
}

func TestWriteJSONL(t *testing.T) {
	tr := NewTracer(newFakeClock().now)
	tr.Begin("a").End()
	tr.Event("b")
	var sb strings.Builder
	if err := tr.WriteJSONL(&sb); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(sb.String(), "\n"), "\n")
	if len(lines) != 3 {
		t.Fatalf("lines = %d, want 3 (schema header + 2 events)", len(lines))
	}
	var header map[string]any
	if err := json.Unmarshal([]byte(lines[0]), &header); err != nil {
		t.Fatalf("header %q: %v", lines[0], err)
	}
	if header["ph"] != "M" {
		t.Fatalf("first line is not the schema header: %q", lines[0])
	}
	if args, _ := header["args"].(map[string]any); args == nil || args["schema"] != TraceSchema {
		t.Fatalf("header schema = %v, want %q", header["args"], TraceSchema)
	}
	for _, line := range lines[1:] {
		var obj map[string]any
		if err := json.Unmarshal([]byte(line), &obj); err != nil {
			t.Fatalf("line %q: %v", line, err)
		}
		if obj["proc"] != "main" || obj["pid"] != 1.0 {
			t.Fatalf("line missing proc identity: %q", line)
		}
		switch obj["ph"] {
		case "X":
			if dur, _ := obj["dur"].(float64); dur <= 0 {
				t.Fatalf("span with non-positive dur: %q", line)
			}
		case "i":
			if obj["s"] != "g" {
				t.Fatalf("instant without global scope: %q", line)
			}
		default:
			t.Fatalf("unexpected phase in %q", line)
		}
	}
}

// TestWriteFileDispatch: the file's name selects nothing — every trace
// file is pdnsec-trace/1 JSONL.
func TestWriteFileDispatch(t *testing.T) {
	dir := t.TempDir()
	for _, name := range []string{"out.jsonl", "out.json", "trace"} {
		tr := NewTracer(newFakeClock().now)
		tr.Begin("a").End()
		path := filepath.Join(dir, name)
		if err := tr.WriteFile(path); err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(strings.TrimRight(string(b), "\n"), "\n")
		if len(lines) != 2 || !strings.Contains(lines[0], TraceSchema) || !strings.HasPrefix(lines[1], `{"name":"a"`) {
			t.Errorf("%s is not a schema header and one event:\n%s", name, b)
		}
	}
}

func TestTracerConcurrent(t *testing.T) {
	tr := NewTracer(nil) // real clock: concurrency only, no determinism claim
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				sp := tr.Begin("work", A("i", i))
				sp.End()
			}
		}()
	}
	wg.Wait()
	if got := tr.Len(); got != 800 {
		t.Fatalf("Len = %d, want 800", got)
	}
	var sb strings.Builder
	if err := tr.WriteJSONL(&sb); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(sb.String(), "\n"), "\n")
	if len(lines) != 801 {
		t.Fatalf("lines = %d, want the schema header and 800 events", len(lines))
	}
	for _, line := range lines {
		if !json.Valid([]byte(line)) {
			t.Fatalf("concurrent JSONL line invalid: %q", line)
		}
	}
}

func TestContextCarrier(t *testing.T) {
	if FromContext(context.Background()) != nil {
		t.Fatal("empty context returned a tracer")
	}
	// Nil from an empty context must still be safe to use.
	FromContext(context.Background()).Event("noop")
	tr := NewTracer(newFakeClock().now)
	ctx := WithTracer(context.Background(), tr)
	FromContext(ctx).Event("carried")
	if tr.Len() != 1 {
		t.Fatal("event via context did not reach the tracer")
	}
}
