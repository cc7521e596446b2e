package chaos

import (
	"context"
	"strings"
	"testing"

	"github.com/stealthy-peers/pdnsec/internal/obs"
	"github.com/stealthy-peers/pdnsec/internal/population"
)

// TestScenarioKeyCompromise runs the leaked-static-key attack against
// the secure profile: six impersonators join under viewer-00's public
// key, every possession proof fails at honest verifiers, the distinct
// failure reports quarantine the key at the matcher, and the
// impersonators extract nothing. The victim whose key leaked loses its
// P2P standing — its own key is burned — but playback still completes
// off the CDN (graceful degradation, the paper's availability
// baseline).
func TestScenarioKeyCompromise(t *testing.T) {
	res := runEntry(t, "key_compromise")
	for _, v := range res.Viewers {
		if v.Behavior != population.BehaviorImpersonator {
			continue
		}
		if v.Stats.P2PUpBytes > 0 || v.Stats.P2PDownBytes > 0 {
			t.Errorf("seed=%d: impersonator %s moved P2P bytes (up=%d down=%d); possession proof did not hold",
				*chaosSeed, v.Name, v.Stats.P2PUpBytes, v.Stats.P2PDownBytes)
		}
	}
	if reports := res.Counter("signal_secure_reports_total"); reports < 3 {
		t.Errorf("seed=%d: matcher received %d bad-key reports, want >= 3 (the quarantine threshold)", *chaosSeed, reports)
	}
}

// TestSecureQuarantineInvariantFires hand-builds a run where the
// matcher quarantined nothing and pins that the containment invariant
// actually fires with a replayable message — the fire-test every
// invariant in this file must have.
func TestSecureQuarantineInvariantFires(t *testing.T) {
	res := &Result{
		Scenario: "key_compromise",
		Seed:     987,
		Obs:      obs.NewRegistry(),
	}
	violations := Invariants{MinSecureQuarantines: 1}.Check(res)
	if len(violations) != 1 {
		t.Fatalf("got %d violations, want exactly the quarantine one: %v", len(violations), violations)
	}
	v := violations[0]
	if !strings.Contains(v, "scenario=key_compromise") || !strings.Contains(v, "seed=987") {
		t.Errorf("violation lacks the replay line: %q", v)
	}
	if !strings.Contains(v, "quarantined 0") {
		t.Errorf("violation does not state the observed count: %q", v)
	}
}

// TestScenarioPollutedWireSecure re-runs the polluted-wire fault under
// the secure profile: with signed per-segment manifests, corrupt bytes
// from the sick node's destroyed uplink must never enter any cache —
// the same invariant the hash-manifest run pins, now enforced by the
// provider's signature rather than a CDN-fetched hash list.
func TestScenarioPollutedWireSecure(t *testing.T) {
	e, _ := Lookup("polluted_wire")
	cfg := e.Swarm
	cfg.Seed, cfg.Profile, cfg.HashManifest = *chaosSeed, "secure", false
	res, err := RunScenario(context.Background(), cfg, e.Scenario)
	if err != nil {
		t.Fatalf("seed=%d: %v", *chaosSeed, err)
	}
	requireInvariants(t, e.Invariants, res)
}
