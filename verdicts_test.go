package pdnsec_test

import (
	"context"
	"fmt"
	"strings"
	"testing"
	"time"

	"github.com/stealthy-peers/pdnsec"
	"github.com/stealthy-peers/pdnsec/internal/golden"
)

// TestAnalyzeVerdictTable pins the Table V battery as cmd/pdnanalyze
// runs it: every risk against every profile, one "profile risk STATUS"
// line per cell. Details are left out — they carry measured counts —
// so the file changes only when a verdict does.
func TestAnalyzeVerdictTable(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	var b strings.Builder
	for _, p := range pdnsec.AllProfiles() {
		verdicts, err := pdnsec.AnalyzeProvider(ctx, p)
		if err != nil {
			t.Fatalf("analyze %s: %v", p.Name, err)
		}
		for _, v := range verdicts {
			status := "SAFE"
			switch {
			case !v.Applicable:
				status = "N/A"
			case v.Vulnerable:
				status = "VULNERABLE"
			}
			fmt.Fprintf(&b, "%s %s %s\n", p.Name, v.Risk, status)
		}
	}
	golden.Check(t, "testdata/pdnanalyze_verdicts.txt", []byte(b.String()))
}
