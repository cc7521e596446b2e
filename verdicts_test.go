package pdnsec_test

import (
	"context"
	"fmt"
	"os"
	"strings"
	"testing"
	"time"

	"github.com/stealthy-peers/pdnsec"
	"github.com/stealthy-peers/pdnsec/internal/golden"
)

// TestAnalyzeVerdictTable checks the battery as cmd/pdnanalyze runs it —
// every risk against every profile through the facade's matrix, one
// "profile risk STATUS" line per cell — against the one verdict golden,
// docs/defense_matrix.md. Details are left out: they carry measured
// counts.
func TestAnalyzeVerdictTable(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	profiles := pdnsec.AllProfiles()
	m, err := pdnsec.AnalyzeMatrix(ctx, profiles)
	if err != nil {
		t.Fatalf("analyze: %v", err)
	}
	var got strings.Builder
	for i, row := range m {
		for _, v := range row {
			fmt.Fprintf(&got, "%s %s %s\n", profiles[i].Name, v.Risk, strings.ToUpper(v.Status()))
		}
	}
	if d := golden.Diff(matrixVerdictLines(t), got.String()); d != "" {
		t.Errorf("pdnanalyze verdicts differ from docs/defense_matrix.md:\n%s", d)
	}
}

// matrixVerdictLines renders the committed defense matrix's table as
// "profile risk STATUS" lines, row by row in column order.
func matrixVerdictLines(t *testing.T) string {
	t.Helper()
	raw, err := os.ReadFile("docs/defense_matrix.md")
	if err != nil {
		t.Fatal(err)
	}
	var risks []string
	var b strings.Builder
	for _, line := range strings.Split(string(raw), "\n") {
		if !strings.HasPrefix(line, "| ") {
			continue
		}
		cells := strings.Split(strings.Trim(line, "| "), " | ")
		if cells[0] == "profile" {
			risks = cells[1:]
			continue
		}
		for i, status := range cells[1:] {
			if i < len(risks) {
				fmt.Fprintf(&b, "%s %s %s\n", cells[0], risks[i], strings.ToUpper(status))
			}
		}
	}
	if len(risks) == 0 {
		t.Fatal("docs/defense_matrix.md has no profile table")
	}
	return b.String()
}
