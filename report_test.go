package pdnsec_test

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"

	"github.com/stealthy-peers/pdnsec"
	"github.com/stealthy-peers/pdnsec/internal/golden"
	"github.com/stealthy-peers/pdnsec/internal/obs"
	"github.com/stealthy-peers/pdnsec/internal/traceview"
)

// reportPath is the released seed-42 report: every table, figure and
// result section of the evaluation, as cmd/experiments prints it.
const reportPath = "docs/experiments-report.txt"

// matrixPath is the verdict golden: the attack battery over every
// profile, the matrix the report's verdict sections read.
const matrixPath = "docs/defense_matrix.md"

// TestReproduceReport runs the whole evaluation at seed 42, as
// `go run ./cmd/experiments -seed 42` does, and compares both goldens
// with that one run: the report, with only Table VI's two latency
// cells masked (see maskLatency), and the defense matrix its verdict
// sections read, whose cells' details are logged, not pinned — they
// carry measured counts. Regenerate the files with
//
//	PDNSEC_UPDATE_GOLDEN=1 go test -run TestReproduceReport .
func TestReproduceReport(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()
	tracer := obs.NewTracer(nil)
	var got bytes.Buffer
	m, err := pdnsec.ReproduceMatrix(obs.WithTracer(ctx, tracer), &got, 42)
	if err != nil {
		t.Fatal(err)
	}
	checkEachCellRanOnce(t, tracer)
	for _, row := range m {
		for _, v := range row {
			t.Logf("%s %s %s: %s", v.Provider, v.Risk, v.Status(), v.Detail)
		}
	}
	golden.Check(t, matrixPath, []byte(m.Markdown()))

	if os.Getenv(golden.UpdateEnv) == "1" {
		golden.Check(t, reportPath, got.Bytes())
		return
	}
	want, err := os.ReadFile(reportPath)
	if err != nil {
		t.Fatal(err)
	}
	if d := golden.Diff(maskLatency(string(want)), maskLatency(got.String())); d != "" {
		t.Errorf("the seed-42 report differs from %s (Table VI latency masked); if the change is meant, regenerate with %s=1 and commit the diff:\n%s",
			reportPath, golden.UpdateEnv, d)
	}
}

// checkEachCellRanOnce fails t unless the tracer recorded exactly one
// analyzer_risk span for every profile × risk pair: one battery run
// feeds every section of the report.
func checkEachCellRanOnce(t *testing.T, tracer *obs.Tracer) {
	t.Helper()
	var buf bytes.Buffer
	if err := tracer.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	recs, _, err := traceview.Parse(&buf)
	if err != nil {
		t.Fatal(err)
	}
	runs := map[string]int{}
	total := 0
	for _, r := range recs {
		if r.Phase == "X" && r.Name == "analyzer_risk" {
			runs[fmt.Sprintf("%v/%v", r.Args["provider"], r.Args["risk"])]++
			total++
		}
	}
	for _, p := range pdnsec.AllProfiles() {
		for _, risk := range pdnsec.AllRisks() {
			if n := runs[p.Name+"/"+risk]; n != 1 {
				t.Errorf("%s/%s ran %d times, want once", p.Name, risk, n)
			}
		}
	}
	if want := len(pdnsec.AllProfiles()) * len(pdnsec.AllRisks()); total != want {
		t.Errorf("%d analyzer_risk spans, want %d: one per cell", total, want)
	}
}

// latencyCell matches a PDN row of Table VI up to its latency cell.
var latencyCell = regexp.MustCompile(`(?m)^(Yes +(?:Yes|No) +[0-9.]+ +[0-9.]+ +)\S+`)

// maskLatency replaces Table VI's two latency cells with LATENCY. They
// are wall-clock means of P2P segment times on the simulated network
// and move by a few milliseconds from run to run; every other cell of
// the report, Table VI's meter counts included, is exact.
func maskLatency(report string) string {
	start := strings.Index(report, "==== Table VI ====\n")
	if start < 0 {
		return report
	}
	end := len(report)
	if n := strings.Index(report[start:], "\n\n"); n >= 0 {
		end = start + n
	}
	return report[:start] + latencyCell.ReplaceAllString(report[start:end], "${1}LATENCY") + report[end:]
}

// TestMaskLatencyReach: on copies of the released report, changing any
// cell but a Table VI latency still fails the comparison.
func TestMaskLatencyReach(t *testing.T) {
	raw, err := os.ReadFile(reportPath)
	if err != nil {
		t.Fatal(err)
	}
	report := string(raw)
	for _, tc := range []struct {
		name          string
		section, row  string
		field         int
		value         string
		stillMatching bool
	}{
		{"Table VI CPU, no IM", "Table VI", "Yes    No", 2, "9.99", false},
		{"Table VI CPU, IM", "Table VI", "Yes    Yes", 2, "9.99", false},
		{"Table VI memory", "Table VI", "Yes    Yes", 3, "9.99", false},
		{"Table VI SIM trips", "Table VI", "Yes    Yes", 5, "0.999", false},
		{"Table VI control latency", "Table VI", "No     No", 4, "999ms", false},
		{"Figure 4 cpu-units", "Figure 4", "peer-b", 1, "9999999", false},
		{"Table V cell", "Table V", "  segment pollution", 2, "safe", false},
		{"Table VI latency, no IM", "Table VI", "Yes    No", 4, "999ms", true},
		{"Table VI latency, IM", "Table VI", "Yes    Yes", 4, "999ms", true},
	} {
		changed := setCell(t, report, tc.section, tc.row, tc.field, tc.value)
		if changed == report {
			t.Fatalf("%s: the edit left the report unchanged", tc.name)
		}
		if same := maskLatency(changed) == maskLatency(report); same != tc.stillMatching {
			t.Errorf("%s: masked reports equal = %v, want %v", tc.name, same, tc.stillMatching)
		}
	}
}

// cellRE matches one whitespace-separated cell of a report line.
var cellRE = regexp.MustCompile(`\S+`)

// setCell returns report with the field-th whitespace-separated cell of
// the first line starting with row, inside the named section, set to
// value.
func setCell(t *testing.T, report, section, row string, field int, value string) string {
	t.Helper()
	head := "==== " + section + " ====\n"
	start := strings.Index(report, head)
	if start < 0 {
		t.Fatalf("no section %q", section)
	}
	for at := start + len(head); at < len(report); {
		line, _, _ := strings.Cut(report[at:], "\n")
		if line == "" {
			break
		}
		if strings.HasPrefix(line, row) {
			cells := cellRE.FindAllStringIndex(line, -1)
			if field >= len(cells) {
				t.Fatalf("%s row %q has %d cells", section, row, len(cells))
			}
			c := cells[field]
			return report[:at+c[0]] + value + report[at+c[1]:]
		}
		at += len(line) + 1
	}
	t.Fatalf("%s has no row %q", section, row)
	return ""
}
