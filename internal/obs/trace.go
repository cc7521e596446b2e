package obs

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Arg is one key/value annotation on a span or event. A string, int or
// bool value — what the data path annotates with — is held unboxed, so
// annotating a span that is not recorded allocates nothing.
type Arg struct {
	Key  string
	kind byte // 's' str, 'i' num, 'b' num != 0; 0: val holds the value
	str  string
	num  int64
	val  any
}

// A constructs an Arg.
func A[T any](key string, value T) Arg {
	switch v := any(value).(type) {
	case string:
		return Arg{Key: key, kind: 's', str: v}
	case int:
		return Arg{Key: key, kind: 'i', num: int64(v)}
	case bool:
		if v {
			return Arg{Key: key, kind: 'b', num: 1}
		}
		return Arg{Key: key, kind: 'b'}
	}
	return Arg{Key: key, val: value}
}

// value returns the annotation's value as given to A.
func (a Arg) value() any {
	switch a.kind {
	case 's':
		return a.str
	case 'i':
		return int(a.num)
	case 'b':
		return a.num != 0
	}
	return a.val
}

// traceShards bounds contention on the record path: spans land in a
// round-robin shard, each with its own buffer and lock, approximating
// per-goroutine buffering without goroutine identity.
const traceShards = 16

// TraceSchema names the JSONL trace file format emitted by WriteJSONL.
// Every file opens with a metadata line carrying this version, so
// pdntrace can reject files written by an incompatible tracer instead
// of mis-stitching them.
const TraceSchema = "pdnsec-trace/1"

// TraceContext is the compact causal identity propagated across
// process boundaries: which trace a request belongs to and which span
// is its remote parent. It travels encoded in the W3C traceparent
// shape (version-traceid-spanid-flags) inside signaling messages, p2p
// want frames, and the CDN fallback's HTTP header. It carries only
// random 64-bit identifiers — never addresses or peer names — so
// propagating it is privacy-neutral by construction.
type TraceContext struct {
	TraceID uint64
	SpanID  uint64
}

// Valid reports whether both identifiers are set (0 is reserved as the
// absent value and never minted).
func (tc TraceContext) Valid() bool { return tc.TraceID != 0 && tc.SpanID != 0 }

// String encodes the context in traceparent form, or "" when invalid.
// The 64-bit trace ID is zero-padded into the 128-bit field.
func (tc TraceContext) String() string {
	if !tc.Valid() {
		return ""
	}
	return fmt.Sprintf("00-%032x-%016x-01", tc.TraceID, tc.SpanID)
}

// TraceIDString renders just the trace identifier as 16 hex digits —
// the form trace files use and pdntrace indexes by — or "" when unset.
func (tc TraceContext) TraceIDString() string {
	if tc.TraceID == 0 {
		return ""
	}
	return fmt.Sprintf("%016x", tc.TraceID)
}

// ParseTraceContext decodes a traceparent-form string. It tolerates
// any flags byte but rejects unknown versions, malformed hex, and
// zero identifiers, so a garbled or hostile propagation field simply
// starts a fresh trace instead of corrupting stitching.
func ParseTraceContext(s string) (TraceContext, bool) {
	if len(s) != 55 || s[0] != '0' || s[1] != '0' || s[2] != '-' || s[35] != '-' || s[52] != '-' {
		return TraceContext{}, false
	}
	// The upper 64 bits of the 128-bit trace-id field must be valid hex
	// (we mint them as zero, but a foreign emitter may not).
	if _, err := strconv.ParseUint(s[3:19], 16, 64); err != nil {
		return TraceContext{}, false
	}
	tid, err := strconv.ParseUint(s[19:35], 16, 64)
	if err != nil {
		return TraceContext{}, false
	}
	sid, err := strconv.ParseUint(s[36:52], 16, 64)
	if err != nil {
		return TraceContext{}, false
	}
	if _, err := strconv.ParseUint(s[53:55], 16, 8); err != nil {
		return TraceContext{}, false
	}
	tc := TraceContext{TraceID: tid, SpanID: sid}
	if !tc.Valid() {
		return TraceContext{}, false
	}
	return tc, true
}

// mix64 is the splitmix64 finalizer: a bijection on uint64, so
// distinct counter values under one seed can never collide, and the
// same seed always yields the same identifier stream.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// fnv64 hashes a process name into the seed domain (FNV-1a).
func fnv64(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// tracerSeq seeds tracers built without an explicit seed, so two
// NewTracer calls in one process still mint disjoint identifier
// streams. It is a plain construction counter — deterministic given
// construction order, no clock or global rand involved.
var tracerSeq atomic.Uint64

// Tracer records spans and instant events with a caller-injected clock.
// A nil *Tracer no-ops on every method, so instrumented components can
// carry the handle unconditionally. The clock choice is what keeps the
// deterministic packages deterministic: components running on the
// simulated network are handed a tracer built on netsim.Network's
// clock, process-domain components one built on time.Now — the
// packages themselves never read a clock.
//
// Span and trace identifiers come from a seeded bijective stream
// (mix64 over an atomic counter): unique within the tracer by
// construction, reproducible run-to-run for the same seed, and free of
// global randomness.
type Tracer struct {
	now    func() time.Time
	proc   string
	idSeed uint64
	ids    atomic.Uint64
	next   atomic.Uint64
	shards [traceShards]traceShard
}

type traceShard struct {
	mu     sync.Mutex
	events []traceEvent
}

// traceEvent is one buffered record. phase follows the Chrome
// trace-event convention: 'X' complete (duration) events, 'i' instants.
// trace/span/parent are 0 when the record predates causal tracing
// (plain Event calls) — the JSONL writer omits zero identifiers.
type traceEvent struct {
	name   string
	phase  byte
	start  int64 // clock reading at begin, UnixNano
	dur    int64 // nanoseconds ('X' only)
	tid    int   // buffer shard, stands in for a thread lane
	trace  uint64
	span   uint64
	parent uint64
	args   []Arg
}

// NewTracer builds a tracer stamping from now; nil now means time.Now
// (process-domain tracing). The process name defaults to "main" and
// the identifier seed to a construction counter; multi-process
// deployments that need per-process identity and seed control use
// NewTracerSeeded or a TraceSet.
func NewTracer(now func() time.Time) *Tracer {
	return NewTracerSeeded(now, "main", int64(tracerSeq.Add(1)))
}

// NewTracerSeeded builds a tracer whose trace files are stamped with
// proc (the process/peer identity pdntrace groups by) and whose
// span/trace identifiers derive deterministically from (seed, proc).
func NewTracerSeeded(now func() time.Time, proc string, seed int64) *Tracer {
	if now == nil {
		now = time.Now
	}
	if proc == "" {
		proc = "main"
	}
	return &Tracer{now: now, proc: proc, idSeed: mix64(uint64(seed) ^ fnv64(proc))}
}

// newID mints the next identifier. mix64 is a bijection, so exactly
// one counter value maps to the reserved 0 — skip it and continue.
func (t *Tracer) newID() uint64 {
	for {
		if id := mix64(t.idSeed ^ t.ids.Add(1)); id != 0 {
			return id
		}
	}
}

// Span is an open interval started by Begin, StartSpan, or
// StartSpanRemote. The zero Span (from a nil tracer) is valid and End
// on it no-ops.
type Span struct {
	t      *Tracer
	name   string
	start  time.Time
	tc     TraceContext
	parent uint64
	args   []Arg
}

// Begin opens a root span: a fresh trace with no parent. The name must
// be a literal snake_case string (enforced by pdnlint obsnames);
// variable detail goes in args. Prefer StartSpan where a context is
// available, so the span joins its caller's trace instead of starting
// a new one.
func (t *Tracer) Begin(name string, args ...Arg) Span {
	if t == nil {
		return Span{}
	}
	return Span{t: t, name: name, start: t.now(), args: recorded(args),
		tc: TraceContext{TraceID: t.newID(), SpanID: t.newID()}}
}

// StartSpan opens a span as a child of the context's active span (or
// as a fresh root when the context carries none) and returns a derived
// context carrying the new span, so nested StartSpan calls chain into
// a tree.
func (t *Tracer) StartSpan(ctx context.Context, name string, args ...Arg) (context.Context, Span) {
	if t == nil {
		return ctx, Span{}
	}
	sp := Span{t: t, name: name, start: t.now(), args: recorded(args)}
	if parent, ok := SpanFromContext(ctx); ok {
		sp.tc = TraceContext{TraceID: parent.tc.TraceID, SpanID: t.newID()}
		sp.parent = parent.tc.SpanID
	} else {
		sp.tc = TraceContext{TraceID: t.newID(), SpanID: t.newID()}
	}
	return ContextWithSpan(ctx, sp), sp
}

// StartSpanRemote opens a span whose parent arrived from another
// process as an encoded TraceContext (see TraceContext.String). An
// empty or malformed encoding starts a fresh root trace — a peer
// sending garbage can orphan its own spans but never corrupt local
// ones.
func (t *Tracer) StartSpanRemote(enc, name string, args ...Arg) Span {
	if t == nil {
		return Span{}
	}
	sp := Span{t: t, name: name, start: t.now(), args: recorded(args)}
	if tc, ok := ParseTraceContext(enc); ok {
		sp.tc = TraceContext{TraceID: tc.TraceID, SpanID: t.newID()}
		sp.parent = tc.SpanID
	} else {
		sp.tc = TraceContext{TraceID: t.newID(), SpanID: t.newID()}
	}
	return sp
}

// TraceContext returns the span's causal identity, for propagation to
// the next hop.
func (s Span) TraceContext() TraceContext { return s.tc }

// End closes the span, appending args to those given at Begin.
func (s Span) End(args ...Arg) {
	if s.t == nil {
		return
	}
	end := s.t.now()
	all := s.args
	if len(args) > 0 {
		all = append(s.args[:len(s.args):len(s.args)], args...)
	}
	s.t.record(traceEvent{
		name:   s.name,
		phase:  'X',
		start:  s.start.UnixNano(),
		dur:    end.Sub(s.start).Nanoseconds(),
		trace:  s.tc.TraceID,
		span:   s.tc.SpanID,
		parent: s.parent,
		args:   all,
	})
}

// Event records an instant attached to the span's trace (parented
// under the span), so e.g. a stall lands inside the segment fetch that
// stalled.
func (s Span) Event(name string, args ...Arg) {
	if s.t == nil {
		return
	}
	s.t.record(traceEvent{
		name:   name,
		phase:  'i',
		start:  s.t.now().UnixNano(),
		trace:  s.tc.TraceID,
		parent: s.tc.SpanID,
		args:   recorded(args),
	})
}

// Event records a free-standing instant, outside any trace.
func (t *Tracer) Event(name string, args ...Arg) {
	if t == nil {
		return
	}
	t.record(traceEvent{name: name, phase: 'i', start: t.now().UnixNano(), args: recorded(args)})
}

// recorded copies a call's args for a record that keeps them, so that
// the variadic slice itself never escapes: a call on a nil tracer builds
// its args on the stack.
func recorded(args []Arg) []Arg { return append([]Arg(nil), args...) }

func (t *Tracer) record(ev traceEvent) {
	n := t.next.Add(1) % traceShards
	ev.tid = int(n)
	shard := &t.shards[n]
	shard.mu.Lock()
	shard.events = append(shard.events, ev)
	shard.mu.Unlock()
}

// Len returns the number of buffered records.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	n := 0
	for i := range t.shards {
		t.shards[i].mu.Lock()
		n += len(t.shards[i].events)
		t.shards[i].mu.Unlock()
	}
	return n
}

// drain copies all shards' events in start-time order.
func (t *Tracer) drainSorted() []traceEvent {
	var out []traceEvent
	for i := range t.shards {
		t.shards[i].mu.Lock()
		out = append(out, t.shards[i].events...)
		t.shards[i].mu.Unlock()
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].start < out[j].start })
	return out
}

// argsJSON renders args as a JSON object, preserving order.
func argsJSON(args []Arg) ([]byte, error) {
	if len(args) == 0 {
		return []byte("{}"), nil
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, a := range args {
		if i > 0 {
			b.WriteByte(',')
		}
		k, err := json.Marshal(a.Key)
		if err != nil {
			return nil, err
		}
		v, err := json.Marshal(a.value())
		if err != nil {
			return nil, err
		}
		b.Write(k)
		b.WriteByte(':')
		b.Write(v)
	}
	b.WriteByte('}')
	return []byte(b.String()), nil
}

// jsonlLine renders one event in the pdnsec-trace/1 form: absolute
// microsecond timestamps (so files from different processes sharing a
// clock domain merge without epoch negotiation), the process identity,
// and the causal identifiers as 16-hex-digit strings (omitted when
// unset).
func jsonlLine(ev traceEvent, proc string) ([]byte, error) {
	args, err := argsJSON(ev.args)
	if err != nil {
		return nil, err
	}
	name, err := json.Marshal(ev.name)
	if err != nil {
		return nil, err
	}
	var b strings.Builder
	fmt.Fprintf(&b, `{"name":%s,"ph":%q,"ts":%d`, name, string(ev.phase), ev.start/1000)
	if ev.phase == 'X' {
		fmt.Fprintf(&b, `,"dur":%d`, ev.dur/1000)
	} else {
		b.WriteString(`,"s":"g"`)
	}
	fmt.Fprintf(&b, `,"pid":1,"tid":%d,"proc":%q`, ev.tid, proc)
	if ev.trace != 0 {
		fmt.Fprintf(&b, `,"trace":"%016x"`, ev.trace)
	}
	if ev.span != 0 {
		fmt.Fprintf(&b, `,"span":"%016x"`, ev.span)
	}
	if ev.parent != 0 {
		fmt.Fprintf(&b, `,"parent":"%016x"`, ev.parent)
	}
	fmt.Fprintf(&b, `,"args":%s}`, args)
	return []byte(b.String()), nil
}

// writeJSONLHeader emits the schema metadata line that opens every
// pdnsec-trace/1 file.
func writeJSONLHeader(w io.Writer, proc string) error {
	_, err := fmt.Fprintf(w, `{"ph":"M","name":"pdnsec_trace_schema","pid":1,"tid":0,"args":{"schema":%q,"proc":%q}}`+"\n",
		TraceSchema, proc)
	return err
}

// WriteJSONL emits the buffer in the pdnsec-trace/1 JSONL form: a
// schema metadata line, then one trace-event object per line —
// greppable, streamable, mergeable across processes, and the input
// format pdntrace stitches.
func (t *Tracer) WriteJSONL(w io.Writer) error {
	if t == nil {
		return nil
	}
	if err := writeJSONLHeader(w, t.proc); err != nil {
		return err
	}
	for _, ev := range t.drainSorted() {
		line, err := jsonlLine(ev, t.proc)
		if err != nil {
			return err
		}
		if _, err := w.Write(append(line, '\n')); err != nil {
			return err
		}
	}
	return nil
}

// writeFileAtomic writes via a temp file in the destination directory
// and renames into place, so a crash mid-write leaves the previous
// file (or nothing) rather than a truncated one that downstream tools
// must special-case.
func writeFileAtomic(path string, write func(io.Writer) error) error {
	f, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	err = write(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(f.Name(), path)
	}
	if err != nil {
		os.Remove(f.Name())
	}
	return err
}

// WriteFile flushes the buffer to path atomically (temp file + rename)
// in the pdnsec-trace/1 JSONL form, whatever the file is called;
// pdntrace -chrome renders it for Perfetto.
func (t *Tracer) WriteFile(path string) error {
	return writeFileAtomic(path, t.WriteJSONL)
}

// TraceSet is a family of tracers sharing one clock and base seed, one
// per process identity — the handle a multi-process deployment (a
// federated signaling plane plus its viewers) threads through
// construction so every component traces under its own name but all
// files stitch. Each process's identifier stream is derived from
// (seed, proc), so two processes in one set can never mint colliding
// span identifiers for the same counter value, and a fixed seed
// reproduces every identifier run-to-run. Nil-safe like Tracer.
type TraceSet struct {
	now     func() time.Time
	seed    int64
	mu      sync.Mutex
	order   []string
	tracers map[string]*Tracer
}

// NewTraceSet builds a tracer family on the given clock (nil means
// time.Now) and identifier seed.
func NewTraceSet(now func() time.Time, seed int64) *TraceSet {
	if now == nil {
		now = time.Now
	}
	return &TraceSet{now: now, seed: seed, tracers: make(map[string]*Tracer)}
}

// Tracer returns the tracer for the given process identity, creating
// it on first use; later calls with the same proc return the same
// tracer. A nil set returns a nil (no-op) tracer.
func (ts *TraceSet) Tracer(proc string) *Tracer {
	if ts == nil {
		return nil
	}
	ts.mu.Lock()
	defer ts.mu.Unlock()
	t, ok := ts.tracers[proc]
	if !ok {
		t = NewTracerSeeded(ts.now, proc, ts.seed)
		ts.tracers[proc] = t
		ts.order = append(ts.order, proc)
	}
	return t
}

// snapshot copies the member tracers in creation order.
func (ts *TraceSet) snapshot() []*Tracer {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	out := make([]*Tracer, 0, len(ts.order))
	for _, proc := range ts.order {
		out = append(out, ts.tracers[proc])
	}
	return out
}

// Len returns the total buffered records across all member tracers.
func (ts *TraceSet) Len() int {
	if ts == nil {
		return 0
	}
	n := 0
	for _, t := range ts.snapshot() {
		n += t.Len()
	}
	return n
}

// WriteJSONL emits every member tracer's buffer into one
// pdnsec-trace/1 stream: each process contributes its own schema
// header (pdntrace reads the proc from each, and from every data
// line) followed by its records.
func (ts *TraceSet) WriteJSONL(w io.Writer) error {
	if ts == nil {
		return nil
	}
	for _, t := range ts.snapshot() {
		if err := t.WriteJSONL(w); err != nil {
			return err
		}
	}
	return nil
}

// WriteFile flushes the merged set to path atomically in the JSONL
// form; pdntrace's -chrome export renders the stitched set.
func (ts *TraceSet) WriteFile(path string) error {
	if ts == nil {
		return nil
	}
	return writeFileAtomic(path, ts.WriteJSONL)
}

// tracerKey carries a Tracer through a context.
type tracerKey struct{}

// WithTracer returns a context carrying t. Deterministic packages
// (analyzer, experiments) receive their tracer this way so their
// exported signatures stay stable and they never construct clocks.
func WithTracer(ctx context.Context, t *Tracer) context.Context {
	return context.WithValue(ctx, tracerKey{}, t)
}

// FromContext returns the context's tracer, or nil — and nil is safe to
// call Begin/Event on, so call sites need no guard.
func FromContext(ctx context.Context) *Tracer {
	t, _ := ctx.Value(tracerKey{}).(*Tracer)
	return t
}

// spanKey carries the active Span through a context.
type spanKey struct{}

// ContextWithSpan returns a context carrying sp as the active span.
// StartSpan does this automatically; use it directly when re-entering
// a trace from a span created by StartSpanRemote.
func ContextWithSpan(ctx context.Context, sp Span) context.Context {
	return context.WithValue(ctx, spanKey{}, sp)
}

// SpanFromContext returns the context's active span. ok is false when
// the context carries none (or a zero span from a nil tracer).
func SpanFromContext(ctx context.Context) (Span, bool) {
	sp, ok := ctx.Value(spanKey{}).(Span)
	return sp, ok && sp.tc.Valid()
}

// ContextString returns the active span's encoded TraceContext, or ""
// when the context carries none — exactly the value to stamp on an
// outgoing message's trace propagation field.
func ContextString(ctx context.Context) string {
	if sp, ok := SpanFromContext(ctx); ok {
		return sp.tc.String()
	}
	return ""
}
