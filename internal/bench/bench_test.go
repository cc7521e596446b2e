package bench

import (
	"context"
	"encoding/json"
	"os"
	"regexp"
	"runtime"
	"sort"
	"testing"
	"time"

	"github.com/stealthy-peers/pdnsec/internal/traceview"
)

// toy is the smoke size: 4 viewers x 8 segments, 200 virtual peers.
var toy = Size{MaxSessions: 4, Segments: 8, PeersPerSwarm: 50}

// settle waits for goroutines started since the baseline to exit.
func settle(t *testing.T, what string, baseline int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("%s left %d goroutines behind:\n%s", what, runtime.NumGoroutine()-baseline, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func names(specs []Spec) []string {
	out := make([]string, len(specs))
	for i, s := range specs {
		out[i] = s.Name
	}
	sort.Strings(out)
	return out
}

func keys(m map[string]Value) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func equal(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestSmokeWorkloads runs every workload at toy size, timed and traced,
// and checks what it emits against the metric catalogue: the names are
// exactly the declared ones, once each; nothing failed; the kept capture
// stitches without orphans; every span name has a layer (RunWorkload
// refuses a capture with an unmapped name); and no goroutine outlives
// the testbed.
func TestSmokeWorkloads(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	baseline := runtime.NumGoroutine()

	common, err := RunCommonLayers(ctx, Options{Seed: 1, Toy: &toy})
	if err != nil {
		t.Fatal(err)
	}
	settle(t, "the probes", baseline)

	for _, w := range Workloads() {
		res, err := RunWorkload(ctx, w, Options{Seed: 1, Reps: 1, Trace: true, Toy: &toy, TraceDir: t.TempDir()})
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		settle(t, w.Name, baseline)
		if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
			t.Errorf("%s: correct=%v failed=%d attempted=%d", w.Name, res.Correct, res.Failed, res.Attempted)
		}
		if w.Signal == nil && res.Attempted != 2*int64(toy.MaxSessions*toy.Segments) {
			t.Errorf("%s: attempted %d segments, want timed + traced x %d sessions x %d", w.Name, res.Attempted, toy.MaxSessions, toy.Segments)
		}
		if got, want := keys(res.EndToEnd), names(EndToEndFor(w)); !equal(got, want) {
			t.Errorf("%s: end-to-end metrics\n got %v\nwant %v", w.Name, got, want)
		}
		for name, v := range common {
			if _, dup := res.PerLayer[name]; dup {
				t.Errorf("%s: %s reported by both the workload and the probes", w.Name, name)
			}
			res.PerLayer[name] = v
		}
		if got, want := keys(res.PerLayer), names(PerLayer()); !equal(got, want) {
			t.Errorf("%s: per-layer metrics\n got %v\nwant %v", w.Name, got, want)
		}
		for _, s := range PerLayer() {
			if res.PerLayer[s.Name].Unit != s.Unit {
				t.Errorf("%s: %s unit %q, catalogue says %q", w.Name, s.Name, res.PerLayer[s.Name].Unit, s.Unit)
			}
		}
		if v := res.PerLayer["obs.orphan_spans"].Value; v != 0 {
			t.Errorf("%s: %v orphan spans", w.Name, v)
		}
		// The kept capture is what pdntrace re-analyses.
		recs, st, err := traceview.LoadFiles([]string{res.TraceFile})
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		if a := traceview.Stitch(recs, st); a.Spans == 0 || a.Orphans != 0 || st.Malformed != 0 {
			t.Errorf("%s: kept capture has %d spans, %d orphans, %d malformed lines", w.Name, a.Spans, a.Orphans, st.Malformed)
		}
		if w.Signal == nil && !w.DisableP2P {
			var sum float64
			for _, layer := range Layers() {
				sum += res.PerLayer["trace."+layer+".critical_share"].Value
			}
			if sum < 0.98 || sum > 1.02 {
				t.Errorf("%s: critical shares sum to %v", w.Name, sum)
			}
		}
	}
}

// TestCatalogueMatchesBenchmarkJSON pins the names the harness emits to
// the lists in the repository's BENCHMARK.json.
func TestCatalogueMatchesBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name, Unit, Better string
		Bound              float64
	}
	var bj struct {
		Paths     []string
		Workloads []struct{ Name, Why string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bj); err != nil {
		t.Fatal(err)
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	seen := make(map[string]bool)
	once := func(kind, name string) {
		if !nameRE.MatchString(name) {
			t.Errorf("%s name %q is outside [A-Za-z0-9_.-]", kind, name)
		}
		if seen[name] {
			t.Errorf("%s name %q appears twice", kind, name)
		}
		seen[name] = true
	}

	var want []Workload
	for _, w := range Workloads() {
		once("workload", w.Name)
		if w.Gated {
			want = append(want, w)
		}
	}
	if len(bj.Workloads) != len(want) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the harness gates %d", len(bj.Workloads), len(want))
	}
	for i, w := range want {
		if bj.Workloads[i].Name != w.Name || bj.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), harness has %q (%q)", i, bj.Workloads[i].Name, bj.Workloads[i].Why, w.Name, w.Why)
		}
		if len(w.Why) > 200 {
			t.Errorf("%s: why is %d characters, limit 200", w.Name, len(w.Why))
		}
	}
	check := func(kind string, got []metric, want []Spec, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the catalogue %d", kind, len(got), len(want))
		}
		for i, s := range want {
			once(kind, s.Name)
			g := got[i]
			if g.Name != s.Name || g.Unit != s.Unit || g.Better != string(s.Better) || (bounded && g.Bound != s.Bound) {
				t.Errorf("%s %d: BENCHMARK.json has %+v, catalogue has %+v", kind, i, g, s)
			}
			if bounded && (s.AbsBound || s.Bound <= 0 || s.Bound > 0.25) {
				t.Errorf("%s: bound %v is not a share in (0, 0.25]", s.Name, s.Bound)
			}
		}
	}
	check("end_to_end", bj.EndToEnd, ViewerEndToEnd(), true)
	check("per_layer", bj.PerLayer, PerLayer(), false)
	for _, s := range append(viewerSupplementary(), SignalEndToEnd()...) {
		if !nameRE.MatchString(s.Name) {
			t.Errorf("metric name %q is outside [A-Za-z0-9_.-]", s.Name)
		}
	}
	if !equal(bj.Paths, []string{"cmd/pdnbench", "internal/bench"}) {
		t.Errorf("paths = %v", bj.Paths)
	}
}
