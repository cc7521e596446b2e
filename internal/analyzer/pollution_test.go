package analyzer_test

import (
	"context"
	"os"
	"slices"
	"strings"
	"testing"
	"time"

	"github.com/stealthy-peers/pdnsec/internal/analyzer"
	"github.com/stealthy-peers/pdnsec/internal/battery"
	"github.com/stealthy-peers/pdnsec/internal/mitm"
	"github.com/stealthy-peers/pdnsec/internal/provider"
)

// TestPollutionVerdictsMatchMatrix drives the testbed's pollution
// primitive directly, on every profile at the battery's seed, and
// checks what the honest victim played against the committed matrix's
// two pollution columns: the foreign video (direct-pollution) falls to
// the slow-start consistency check everywhere, and same-size segments
// (segment-pollution) reach the victim exactly where the matrix reads
// vulnerable.
func TestPollutionVerdictsMatchMatrix(t *testing.T) {
	direct := matrixColumn(t, battery.RiskDirectPollution)
	segment := matrixColumn(t, battery.RiskSegmentPollution)
	for _, prof := range provider.AllProfiles() {
		t.Run(prof.Name, func(t *testing.T) {
			wantDirect, ok := direct[prof.Name]
			if !ok {
				t.Fatalf("docs/defense_matrix.md has no %s row", prof.Name)
			}
			ctx, cancel := context.WithTimeout(context.Background(), 3*time.Minute)
			defer cancel()
			foreign := mitm.ForeignVideoPollution(analyzer.SmallVideo("attacker-movie", 2, 4<<10), "360p")
			if got := polluted(ctx, t, prof, foreign); got != wantDirect {
				t.Errorf("direct pollution polluted=%v, matrix vulnerable=%v", got, wantDirect)
			}
			if got := polluted(ctx, t, prof, mitm.SameSizePollution([]int{3, 4})); got != segment[prof.Name] {
				t.Errorf("segment pollution polluted=%v, matrix vulnerable=%v", got, segment[prof.Name])
			}
		})
	}
}

// polluted runs one pollution attack on a fresh testbed and reports
// whether the victim played any polluted segment.
func polluted(ctx context.Context, t *testing.T, prof provider.Profile, pollute mitm.PolluteFunc) bool {
	t.Helper()
	tb, err := analyzer.NewTestbed(ctx, analyzer.TestbedConfig{
		Profile: prof,
		Video:   analyzer.SmallVideo("bbb", 6, 16<<10),
		Options: provider.Options{Seed: battery.Seed},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer tb.Close()
	vic, err := tb.Pollution(ctx, pollute)
	if err != nil {
		t.Fatal(err)
	}
	t.Log(vic.String())
	return len(vic.PollutedSegments) > 0
}

// matrixColumn reads one risk column of the committed defense matrix
// as profile → vulnerable.
func matrixColumn(t *testing.T, risk string) map[string]bool {
	t.Helper()
	raw, err := os.ReadFile("../../docs/defense_matrix.md")
	if err != nil {
		t.Fatal(err)
	}
	col := -1
	out := make(map[string]bool)
	for _, line := range strings.Split(string(raw), "\n") {
		if !strings.HasPrefix(line, "| ") {
			continue
		}
		cells := strings.Split(strings.Trim(line, "| "), " | ")
		if cells[0] == "profile" {
			col = slices.Index(cells, risk)
			continue
		}
		if col > 0 && col < len(cells) {
			out[cells[0]] = cells[col] == "vulnerable"
		}
	}
	if col < 0 {
		t.Fatalf("docs/defense_matrix.md has no %q column", risk)
	}
	return out
}
