package pdnsec_test

import (
	"bytes"
	"context"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"

	"github.com/stealthy-peers/pdnsec"
	"github.com/stealthy-peers/pdnsec/internal/golden"
)

// reportPath is the released seed-42 report: every table, figure and
// result section of the evaluation, as cmd/experiments prints it.
const reportPath = "docs/experiments-report.txt"

// TestReproduceReport runs the whole evaluation at seed 42, as
// `go run ./cmd/experiments -seed 42` does, and compares it with the
// released report. Only Table VI's two latency cells are masked (see
// maskLatency). Regenerate the file with
//
//	PDNSEC_UPDATE_GOLDEN=1 go test -run TestReproduceReport .
func TestReproduceReport(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()
	var got bytes.Buffer
	if err := pdnsec.Reproduce(ctx, &got, 42); err != nil {
		t.Fatal(err)
	}
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
