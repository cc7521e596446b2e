package replay

import (
	"context"
	"testing"
	"time"

	"github.com/stealthy-peers/pdnsec/internal/golden"
	"github.com/stealthy-peers/pdnsec/internal/provider"
)

// replaySeed pins the matrix run. Every mismatch message leads with it:
// rerunning the named test at the same seed replays the identical
// attack schedule.
const replaySeed = 20260809

// matrixExpectations is the committed verdict table — the paper's
// "before" (deployed profiles exposed, each for its own reason) and
// this repo's "after" (hardened and secure blocking the same attack
// binaries). Order: join_probe, cross_domain, domain_spoof, pollution,
// sybil_flood, free_rider_wave.
var matrixExpectations = map[string][6]bool{
	// Public per-traffic services: scraped key, no allowlist — every
	// credential attack lands, and so does everything else.
	"peer5":      {false, true, true, true, true, true},
	"streamroot": {false, true, true, true, true, true},
	// Allowlist-by-default blocks the naive cross-domain join but falls
	// to the origin-spoofing MITM (the paper's §IV-B headline).
	"viblast": {false, false, true, true, true, true},
	// The extracted-SDK private provider never authenticates at all.
	"mango-private": {true, true, true, true, true, true},
	// Session tokens unbound to the video: theft transfers them.
	"tencent-private": {false, true, true, true, true, true},
	// Video-bound tokens survive theft; integrity/identity do not.
	"strict-private": {false, false, false, true, true, true},
	// Secret tenant credential defeats theft; an insider still pollutes
	// and squats (§VI: integrity unaddressed).
	"ecdn": {false, false, false, true, true, true},
	// §V defenses: JWT binding, IM quorum, per-host identity budget.
	"hardened": {false, false, false, false, false, false},
	// Hardened plus authenticated transport + signed manifests.
	"secure": {false, false, false, false, false, false},
}

// TestDefenseMatrix is the headline replay regression: every attack
// against every profile, verdicts pinned, markdown golden committed at
// docs/defense_matrix.md (regenerate with PDNSEC_UPDATE_GOLDEN=1).
func TestDefenseMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("full attack replay matrix is not a -short test")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 8*time.Minute)
	defer cancel()

	m, err := BuildMatrix(ctx, replaySeed)
	if err != nil {
		t.Fatalf("seed=%d: BuildMatrix: %v", replaySeed, err)
	}

	// Iterate the profile registry, not the expectations map: a future
	// profile without a pinned row must fail loudly here.
	for _, prof := range provider.AllProfiles() {
		want, ok := matrixExpectations[prof.Name]
		if !ok {
			t.Errorf("profile %q has no matrix expectations; pin its row in matrixExpectations", prof.Name)
			continue
		}
		for i, attackName := range ReplayAttacks() {
			cell, ok := m.Cell(prof.Name, attackName)
			if !ok {
				t.Errorf("seed=%d: matrix has no cell for %s/%s", replaySeed, prof.Name, attackName)
				continue
			}
			if cell.Succeeded != want[i] {
				t.Errorf("seed=%d profile=%s attack=%s: succeeded=%v, want %v (%s)\nrerun: go test ./internal/replay -run 'TestDefenseMatrix'",
					replaySeed, prof.Name, attackName, cell.Succeeded, want[i], cell.Detail)
			} else {
				t.Logf("profile=%s attack=%s: %s", prof.Name, attackName, cell.Detail)
			}
		}
	}
	if t.Failed() {
		return
	}

	golden.Check(t, "../../docs/defense_matrix.md", []byte(m.Markdown()))
}

// TestMatrixMarkdownPure pins that the rendering is a function of the
// verdicts alone — the property that keeps the committed golden free
// of timing noise.
func TestMatrixMarkdownPure(t *testing.T) {
	m1 := &Matrix{Seed: 7, Rows: []ProfileReplay{{
		Profile: "peer5",
		Cells:   []CellResult{{Attack: AttackPollution, Succeeded: true, Detail: "victim played 2 polluted"}},
	}}}
	m2 := &Matrix{Seed: 7, Rows: []ProfileReplay{{
		Profile: "peer5",
		Cells:   []CellResult{{Attack: AttackPollution, Succeeded: true, Detail: "totally different detail text"}},
	}}}
	if m1.Markdown() != m2.Markdown() {
		t.Error("Markdown() depends on cell details; golden would drift on timing noise")
	}
	if _, ok := m1.Cell("peer5", AttackPollution); !ok {
		t.Error("Cell lookup failed for a present cell")
	}
	if _, ok := m1.Cell("peer5", AttackJoinProbe); ok {
		t.Error("Cell lookup invented an absent cell")
	}
}
