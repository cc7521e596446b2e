package bench

import "testing"

func TestVerdict(t *testing.T) {
	lower := Spec{Name: "seg_p50_ms", Better: Lower, Bound: 0.10}
	higher := Spec{Name: "goodput_mbps", Better: Higher, Bound: 0.10}
	abs := Spec{Name: "cdn_offload_ratio", Better: Higher, Bound: 0.02, AbsBound: true}
	anyInc := Spec{Name: "fail_ratio", Better: Lower, AbsBound: true}
	v := func(val float64, reps ...float64) Value { return Value{Value: val, Reps: reps} }
	cases := []struct {
		name         string
		spec         Spec
		base, change Value
		want         string
	}{
		{"within the bound", lower, v(1.00, 0.99, 1.00, 1.01), v(1.05, 1.04, 1.05, 1.06), Same},
		{"worse than the bound", lower, v(1.00, 0.99, 1.00, 1.01), v(1.20, 1.19, 1.20, 1.21), Worse},
		{"better is same", lower, v(1.00, 0.99, 1.00, 1.01), v(0.50, 0.49, 0.50, 0.51), Same},
		{"higher-is-better drop", higher, v(100, 99, 100, 101), v(85, 84, 85, 86), Worse},
		{"higher-is-better gain", higher, v(100, 99, 100, 101), v(130, 129, 130, 131), Same},
		{"spread wider than the bound hides a small change", lower, v(1.00, 0.90, 1.00, 1.10), v(1.05, 0.95, 1.05, 1.15), Unresolved},
		{"noisy change over a tight base, median inside the bound", lower, v(1.00, 0.99, 1.00, 1.01), v(1.05, 0.90, 1.05, 1.30), Unresolved},
		{"noisy change over a tight base, median outside the bound", lower, v(1.00, 0.99, 1.00, 1.01), v(1.20, 0.95, 1.20, 1.40), Unresolved},
		{"noisy change that loses every pairing", lower, v(1.00, 0.99, 1.00, 1.01), v(1.50, 1.30, 1.50, 1.70), Worse},
		{"wide spread, change wins every pairing", lower, v(1.00, 0.90, 1.00, 1.10), v(0.50, 0.45, 0.50, 0.55), Same},
		{"wide spread, change loses every pairing", lower, v(1.00, 0.90, 1.00, 1.10), v(2.00, 1.90, 2.00, 2.10), Worse},
		{"absolute bound holds", abs, v(0.99, 0.99, 0.99, 0.99), v(0.98, 0.98, 0.98, 0.98), Same},
		{"absolute bound broken", abs, v(0.99, 0.99, 0.99, 0.99), v(0.66, 0.66, 0.66, 0.66), Worse},
		{"any increase of a zero", anyInc, v(0, 0, 0, 0), v(0.001, 0.001, 0.001, 0.001), Worse},
		{"zero stays zero", anyInc, v(0, 0, 0, 0), v(0, 0, 0, 0), Same},
	}
	for _, c := range cases {
		if got := verdict(c.spec, c.base, c.change); got != c.want {
			t.Errorf("%s: verdict = %s, want %s", c.name, got, c.want)
		}
	}
}

func TestCompareRowsPerWorkload(t *testing.T) {
	mk := func(goodput float64) *Report {
		return &Report{Schema: Schema, Workloads: []*Result{
			{Workload: "cdn_only", EndToEnd: map[string]Value{"goodput_mbps": {Value: goodput, Unit: "MB/s"}}},
			{Workload: "no_such_workload", EndToEnd: map[string]Value{"goodput_mbps": {Value: 1}}},
		}}
	}
	rows := Compare(mk(1000), mk(700))
	if len(rows) != 1 || rows[0].Workload != "cdn_only" || rows[0].Metric.Name != "goodput_mbps" || rows[0].Verdict != Worse {
		t.Fatalf("rows = %+v, want one worse cdn_only/goodput_mbps row", rows)
	}
}
