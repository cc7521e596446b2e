package obs

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"
)

func TestTraceContextRoundTrip(t *testing.T) {
	tc := TraceContext{TraceID: 0xdeadbeefcafe0001, SpanID: 0x0123456789abcdef}
	enc := tc.String()
	if len(enc) != 55 {
		t.Fatalf("encoded length = %d, want 55 (%q)", len(enc), enc)
	}
	got, ok := ParseTraceContext(enc)
	if !ok || got != tc {
		t.Fatalf("round trip = %+v ok=%v, want %+v", got, ok, tc)
	}
	if (TraceContext{}).String() != "" {
		t.Fatal("invalid context encoded to non-empty string")
	}
	for _, bad := range []string{
		"",
		"00-x-y-01",
		"01-0000000000000000deadbeefcafe0001-0123456789abcdef-01", // unknown version
		"00-00000000000000000000000000000000-0123456789abcdef-01", // zero trace ID
		"00-0000000000000000deadbeefcafe0001-0000000000000000-01", // zero span ID
		"00-0000000000000000deadbeefcafe000g-0123456789abcdef-01", // bad hex
		strings.Repeat("0", 55),
	} {
		if _, ok := ParseTraceContext(bad); ok {
			t.Errorf("ParseTraceContext(%q) accepted garbage", bad)
		}
	}
	// Any flags byte is tolerated (sampled/unsampled both stitch).
	if _, ok := ParseTraceContext("00-0000000000000000deadbeefcafe0001-0123456789abcdef-00"); !ok {
		t.Error("flags byte 00 rejected")
	}
}

// TestSpanIDUniqueAcrossShards hammers one tracer from many goroutines
// (records land in all 16 shards) and checks that every minted span
// identifier is globally unique. Run under -race this also exercises
// the identifier counter and shard buffers for data races.
func TestSpanIDUniqueAcrossShards(t *testing.T) {
	tr := NewTracerSeeded(newFakeClock().now, "uniq", 42)
	const goroutines = 16
	const perG = 200
	ids := make([][]uint64, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				ctx, sp := tr.StartSpan(context.Background(), "work")
				_, child := tr.StartSpan(ctx, "work_child")
				child.End()
				sp.End()
				ids[g] = append(ids[g], sp.TraceContext().SpanID, child.TraceContext().SpanID)
			}
		}(g)
	}
	wg.Wait()
	seen := make(map[uint64]bool, goroutines*perG*2)
	for _, chunk := range ids {
		for _, id := range chunk {
			if id == 0 {
				t.Fatal("minted the reserved zero identifier")
			}
			if seen[id] {
				t.Fatalf("span ID %016x minted twice", id)
			}
			seen[id] = true
		}
	}
	if tr.Len() != goroutines*perG*2 {
		t.Fatalf("Len = %d, want %d", tr.Len(), goroutines*perG*2)
	}
}

// TestDeterministicTraceIDs pins the reproducibility contract: the same
// (seed, proc) and the same seeded clock produce byte-identical JSONL,
// and a different seed produces different identifiers.
func TestDeterministicTraceIDs(t *testing.T) {
	render := func(seed int64) string {
		tr := NewTracerSeeded(newFakeClock().now, "viewer-1", seed)
		ctx, root := tr.StartSpan(context.Background(), "segment", A("idx", 0))
		_, child := tr.StartSpan(ctx, "p2p_request")
		child.End(A("found", true))
		root.End()
		var sb strings.Builder
		if err := tr.WriteJSONL(&sb); err != nil {
			t.Fatal(err)
		}
		return sb.String()
	}
	a, b := render(7), render(7)
	if a != b {
		t.Fatalf("same seed produced different JSONL:\n%s\n--\n%s", a, b)
	}
	if c := render(8); c == a {
		t.Fatal("different seeds produced identical identifier streams")
	}
}

func TestStartSpanChains(t *testing.T) {
	tr := NewTracerSeeded(newFakeClock().now, "p", 1)
	ctx, root := tr.StartSpan(context.Background(), "segment")
	cctx, child := tr.StartSpan(ctx, "p2p_request")
	if child.TraceContext().TraceID != root.TraceContext().TraceID {
		t.Fatal("child left its parent's trace")
	}
	if child.parent != root.TraceContext().SpanID {
		t.Fatal("child does not point at its parent span")
	}
	if enc := ContextString(cctx); enc == "" || enc != child.TraceContext().String() {
		t.Fatalf("ContextString = %q, want the child's encoding", enc)
	}
	if ContextString(context.Background()) != "" {
		t.Fatal("span-less context encoded non-empty")
	}
}

func TestStartSpanRemote(t *testing.T) {
	client := NewTracerSeeded(newFakeClock().now, "client", 1)
	server := NewTracerSeeded(newFakeClock().now, "server", 1)
	_, req := client.StartSpan(context.Background(), "segment")
	serve := server.StartSpanRemote(req.TraceContext().String(), "signal_join_serve")
	if serve.TraceContext().TraceID != req.TraceContext().TraceID {
		t.Fatal("remote span did not join the propagated trace")
	}
	if serve.parent != req.TraceContext().SpanID {
		t.Fatal("remote span does not point at the propagated parent")
	}
	// Two same-seed tracers differ by proc, so their streams stay
	// disjoint even when stitched into one trace.
	if serve.TraceContext().SpanID == req.TraceContext().SpanID {
		t.Fatal("client and server minted the same span identifier")
	}
	// Garbage starts a fresh root instead of corrupting stitching.
	fresh := server.StartSpanRemote("not-a-traceparent", "signal_join_serve")
	if fresh.TraceContext().TraceID == req.TraceContext().TraceID || fresh.parent != 0 {
		t.Fatalf("garbage propagation joined a trace: %+v", fresh.tc)
	}
	serve.End()
	fresh.End()
}

func TestTraceSetSharedStitching(t *testing.T) {
	set := NewTraceSet(newFakeClock().now, 3)
	if set.Tracer("a") != set.Tracer("a") {
		t.Fatal("same proc returned distinct tracers")
	}
	a, b := set.Tracer("a"), set.Tracer("b")
	_, root := a.StartSpan(context.Background(), "segment")
	b.StartSpanRemote(root.TraceContext().String(), "p2p_serve").End()
	root.End()
	var sb strings.Builder
	if err := set.WriteJSONL(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if strings.Count(out, `"pdnsec_trace_schema"`) != 2 {
		t.Fatalf("want one schema header per process:\n%s", out)
	}
	if strings.Count(out, root.TraceContext().TraceIDString()) < 2 {
		t.Fatalf("trace ID did not appear in both processes' records:\n%s", out)
	}
	var nilSet *TraceSet
	if nilSet.Tracer("x") != nil {
		t.Fatal("nil set returned a live tracer")
	}
	if err := nilSet.WriteJSONL(&sb); err != nil {
		t.Fatal(err)
	}
}

// TestUntracedSpanAllocBudget: a component that runs untraced pays
// nothing for its instrumentation. Annotating a span on a nil tracer
// with the string, int and bool values the data path uses, opening it,
// adding instants and ending it allocate nothing — the args stay on the
// caller's stack, copied only by a tracer that records them.
func TestUntracedSpanAllocBudget(t *testing.T) {
	var tr *Tracer
	id, idx, found := strings.Repeat("peer", 4), 4097, true
	allocs := testing.AllocsPerRun(100, func() {
		ctx, sp := tr.StartSpan(context.Background(), "p2p_request", A("neighbor", id), A("idx", idx))
		remote := tr.StartSpanRemote(ContextString(ctx), "p2p_serve", A("neighbor", id), A("idx", idx))
		sp.Event("cdn_fallback", A("video", id), A("idx", idx))
		tr.Event("neighbor_evict", A("neighbor", id), A("reason", "request_timeout"))
		remote.End(A("found", found), A("bytes", idx))
		sp.End(A("found", found))
		tr.Begin("segment", A("idx", idx)).End(A("source", id))
	})
	if allocs != 0 {
		t.Fatalf("an untraced span with its args allocates %.0f times, want 0", allocs)
	}
}

// TestArgValues: A keeps every value as given — the typed ones and a
// boxed one alike — so the trace file renders them as before.
func TestArgValues(t *testing.T) {
	type named string
	for _, tc := range []struct {
		arg  Arg
		want any
	}{
		{A("s", "x"), "x"},
		{A("i", -7), -7},
		{A("b", true), true},
		{A("f", false), false},
		{A("n", named("y")), named("y")},
		{A("u", uint8(3)), uint8(3)},
		{A("l", []string{"a"}), []string{"a"}},
	} {
		if got := tc.arg.value(); fmt.Sprintf("%T %v", got, got) != fmt.Sprintf("%T %v", tc.want, tc.want) {
			t.Errorf("A(%q, …).value() = %T %v, want %T %v", tc.arg.Key, got, got, tc.want, tc.want)
		}
	}
}
