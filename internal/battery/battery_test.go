package battery

import (
	"context"
	"testing"
	"time"

	"github.com/stealthy-peers/pdnsec/internal/golden"
)

// TestDefenseMatrix is the battery's one golden: every risk against
// every profile, each cell's status committed at docs/defense_matrix.md
// (regenerate with PDNSEC_UPDATE_GOLDEN=1). Details are logged, not
// pinned — they carry measured counts.
func TestDefenseMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("full attack battery matrix is not a -short test")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 8*time.Minute)
	defer cancel()

	m, err := BuildMatrix(ctx)
	if err != nil {
		t.Fatalf("seed=%d: BuildMatrix: %v", Seed, err)
	}
	for _, row := range m {
		for _, v := range row {
			t.Logf("%s %s %s: %s", v.Provider, v.Risk, v.Status(), v.Detail)
		}
	}
	golden.Check(t, "../../docs/defense_matrix.md", []byte(m.Markdown()))
}

// TestMatrixMarkdownPure pins that the rendering is a function of the
// statuses alone — the property that keeps the committed golden free
// of timing noise.
func TestMatrixMarkdownPure(t *testing.T) {
	row := func(pollution, spoof string) Matrix {
		return Matrix{{
			{Provider: "peer5", Risk: RiskSegmentPollution, Applicable: true, Vulnerable: true, Detail: pollution},
			{Provider: "peer5", Risk: RiskDomainSpoofing, Detail: spoof},
		}}
	}
	m1 := row("victim played 2 polluted", "no publicly-stealable key to spoof an origin for")
	m2 := row("totally different detail text", "another reason entirely")
	if m1.Markdown() != m2.Markdown() {
		t.Error("Markdown() depends on cell details; golden would drift on timing noise")
	}
}
