package battery

import "testing"

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
