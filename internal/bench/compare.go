package bench

import (
	"fmt"
	"io"
	"math"
)

// Verdicts Compare hands out.
const (
	Same       = "same"
	Worse      = "worse"
	Unresolved = "unresolved"
)

// Row is one (workload, end-to-end metric) pairing of two reports.
type Row struct {
	Workload string
	Metric   Spec
	Base     Value
	Change   Value
	Verdict  string
}

// Compare applies each end-to-end metric's bound, one row per workload
// and metric present in both reports. A change is worse when its value
// is worse than the base's by more than the bound. Where either side's
// repetitions spread wider than the bound the row is unresolved — unless
// every repetition of one side beats every repetition of the other, in
// which case the spread did not hide the answer.
func Compare(base, change *Report) []Row {
	var rows []Row
	for _, b := range base.Workloads {
		var c *Result
		for _, r := range change.Workloads {
			if r.Workload == b.Workload {
				c = r
			}
		}
		w, ok := WorkloadByName(b.Workload)
		if c == nil || !ok {
			continue
		}
		for _, spec := range EndToEndFor(w) {
			bv, okb := b.EndToEnd[spec.Name]
			cv, okc := c.EndToEnd[spec.Name]
			if okb && okc {
				rows = append(rows, Row{Workload: b.Workload, Metric: spec, Base: bv, Change: cv, Verdict: verdict(spec, bv, cv)})
			}
		}
	}
	return rows
}

func verdict(spec Spec, base, change Value) string {
	// worseBy is positive when x is worse than y.
	worseBy := func(x, y float64) float64 {
		if spec.Better == Higher {
			return y - x
		}
		return x - y
	}
	limit := spec.Bound
	if !spec.AbsBound {
		limit *= math.Abs(base.Value)
	}
	bLo, bHi := base.Spread()
	cLo, cHi := change.Spread()
	// The worst repetition of one side against the best of the other.
	bBest, bWorst, cBest, cWorst := bLo, bHi, cLo, cHi
	if spec.Better == Higher {
		bBest, bWorst, cBest, cWorst = bHi, bLo, cHi, cLo
	}
	regressed := worseBy(change.Value, base.Value) > limit
	if math.Max(bHi-bLo, cHi-cLo) > limit {
		switch {
		case worseBy(cWorst, bBest) < 0:
			return Same // every repetition of the change beats every one of the base
		case regressed && worseBy(cBest, bWorst) > 0:
			return Worse // every repetition of the change loses to every one of the base
		}
		return Unresolved
	}
	if regressed {
		return Worse
	}
	return Same
}

// WriteRows prints the comparison and returns how many rows are worse.
func WriteRows(w io.Writer, rows []Row) (worse int) {
	fmt.Fprintf(w, "%-16s %-30s %14s %14s %8s  %s\n", "workload", "metric", "base", "change", "delta", "verdict")
	for _, r := range rows {
		delta := "n/a"
		if r.Base.Value != 0 {
			delta = fmt.Sprintf("%+.1f%%", (r.Change.Value/r.Base.Value-1)*100)
		}
		fmt.Fprintf(w, "%-16s %-30s %14.4f %14.4f %8s  %s\n",
			r.Workload, r.Metric.Name, r.Base.Value, r.Change.Value, delta, r.Verdict)
		if r.Verdict == Worse {
			worse++
		}
	}
	return worse
}
