package bench

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
)

// Schema names the report layout.
const Schema = "pdnsec-bench/2"

// Report is what one pdnbench invocation measured, stamped with where
// and how.
type Report struct {
	Schema     string  `json:"schema"`
	GoVersion  string  `json:"go_version"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	CPUModel   string  `json:"cpu_model"`
	Commit     string  `json:"commit"`
	Seed       int64   `json:"seed"`
	Reps       int     `json:"reps"`
	Seconds    float64 `json:"seconds"`

	Workloads []*Result `json:"workloads"`
}

// NewReport stamps an empty report with the machine and build.
func NewReport(opts Options) *Report {
	return &Report{
		Schema:     Schema,
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPUModel:   cpuModel(),
		Commit:     commit(),
		Seed:       opts.Seed,
		Reps:       opts.Reps,
		Seconds:    opts.Seconds,
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if name, ok := strings.CutPrefix(sc.Text(), "model name"); ok {
			return strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
		}
	}
	return "unknown"
}

// commit is the VCS revision the binary was built from, when the
// toolchain stamped one (go build in a git checkout does; go run in an
// exported tree does not).
func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

// WriteJSON writes the report, indented.
func (r *Report) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// ReadReport loads a report written by WriteJSON.
func ReadReport(path string) (*Report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r Report
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if r.Schema != Schema {
		return nil, fmt.Errorf("%s: schema %q, want %q", path, r.Schema, Schema)
	}
	return &r, nil
}

// WriteText prints every metric of a result by name, with its unit,
// sample count and repetition spread.
func (res *Result) WriteText(w io.Writer) {
	fmt.Fprintf(w, "%s: correct=%v attempted=%d failed=%d measured=%.1fs\n",
		res.Workload, res.Correct, res.Attempted, res.Failed, res.MeasuredS)
	wl, _ := WorkloadByName(res.Workload)
	line := func(name string, v Value) {
		fmt.Fprintf(w, "  %-34s %14.4f %-6s", name, v.Value, v.Unit)
		if v.N > 0 {
			fmt.Fprintf(w, " n=%d", v.N)
		}
		if len(v.Reps) > 1 {
			lo, hi := v.Spread()
			fmt.Fprintf(w, " reps[%.4g .. %.4g]", lo, hi)
		}
		fmt.Fprintln(w)
	}
	for _, s := range EndToEndFor(wl) {
		if v, ok := res.EndToEnd[s.Name]; ok {
			line(s.Name, v)
		}
	}
	for _, s := range PerLayer() {
		if v, ok := res.PerLayer[s.Name]; ok {
			line(s.Name, v)
		}
	}
}
