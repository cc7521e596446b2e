package chaos

import (
	"bytes"
	"context"
	"strings"
	"testing"
	"time"

	"github.com/stealthy-peers/pdnsec/internal/pdnclient"
	"github.com/stealthy-peers/pdnsec/internal/population"
	"github.com/stealthy-peers/pdnsec/internal/signal"
)

// TestAdversarialScenarioLogsDeterministic extends the reproducibility
// contract to spawn-bearing schedules: five runs of each catalogued
// behavioral scenario at the same seed must produce byte-identical
// JSONL logs (CI repeats this under -race). Spawn events record only
// the schedule's parameters, so a no-op driver sees the same bytes the
// full harness would.
func TestAdversarialScenarioLogsDeterministic(t *testing.T) {
	for _, name := range Names() {
		sc := catalog[name].Scenario
		if !spawns(sc) {
			continue
		}
		t.Run(sc.Name, func(t *testing.T) {
			var first []byte
			for run := 0; run < 5; run++ {
				eng := newRoster(t, 42, 8)
				eng.SetSpawnDriver(func(b population.Behavior, count int, at time.Duration) error { return nil })
				if err := eng.Run(context.Background(), sc); err != nil {
					t.Fatalf("run %d: %v", run, err)
				}
				log := eng.LogBytes()
				if len(log) == 0 {
					t.Fatalf("run %d produced an empty log", run)
				}
				if run == 0 {
					first = log
					continue
				}
				if !bytes.Equal(first, log) {
					t.Fatalf("seed 42 run %d diverged:\nfirst:\n%s\nthis:\n%s", run, first, log)
				}
			}
		})
	}
}

// spawns reports whether the schedule injects a population band.
func spawns(sc Scenario) bool {
	for _, st := range sc.Steps {
		if st.Fault == FaultSpawn {
			return true
		}
	}
	return false
}

// TestFreeRiderWaveSeedDivergence pins that the scenario suite's logs
// are genuinely seed-dependent, not merely constant: free_rider_wave
// carries a churn step whose victim selection must differ across seeds.
func TestFreeRiderWaveSeedDivergence(t *testing.T) {
	// Half of a 16-node roster gives the churn step a selection space
	// large enough that distinct seeds cannot plausibly collide.
	sc := FreeRiderWave(10*time.Millisecond, 8, 60*time.Millisecond, 0.5)
	logs := make([][]byte, 2)
	for i, seed := range []int64{42, 43} {
		eng := newRoster(t, seed, 16)
		eng.SetSpawnDriver(func(population.Behavior, int, time.Duration) error { return nil })
		if err := eng.Run(context.Background(), sc); err != nil {
			t.Fatal(err)
		}
		logs[i] = eng.LogBytes()
	}
	if bytes.Equal(logs[0], logs[1]) {
		t.Fatalf("seeds 42 and 43 produced identical free_rider_wave logs:\n%s", logs[0])
	}
}

// TestSpawnWithoutDriverFails pins that a spawn-bearing scenario run
// against an engine with no driver is a harness error, not a silently
// skipped band.
func TestSpawnWithoutDriverFails(t *testing.T) {
	eng := newRoster(t, 1, 2)
	err := eng.Run(context.Background(), SybilFlood(0, 3))
	if err == nil || !strings.Contains(err.Error(), "driver") {
		t.Fatalf("want missing-driver error, got %v", err)
	}
}

// TestScenarioSybilFlood runs the identity mill against the Hardened
// profile: the per-host ledger plus identity budget must keep its
// match-grant share capped while honest playback completes, and the
// ledger must see the whole mill.
func TestScenarioSybilFlood(t *testing.T) {
	res := runEntry(t, "sybil_flood")
	mill := catalog["sybil_flood"].Scenario.Steps[0].Count
	if share, peak := res.SybilSlotShare(); peak != mill {
		t.Errorf("seed=%d: ledger saw identity peak %d (share %.2f), want the full %d-identity mill", *chaosSeed, peak, share, mill)
	}
}

// TestScenarioEclipseMatcher floods the swarm with colluders that
// accept every connection and serve nothing. Matcher integrity must
// hold: every honest survivor keeps at least one non-colluder neighbor.
func TestScenarioEclipseMatcher(t *testing.T) {
	if res := runEntry(t, "eclipse_matcher"); len(res.Colluders) != 6 {
		t.Errorf("seed=%d: recorded %d colluder IDs, want 6", *chaosSeed, len(res.Colluders))
	}
}

// TestScenarioFreeRiderWave injects a leech farm mid-playback and then
// churns part of the honest swarm out from under it. The fairness floor
// must hold — the farm downloads without uploading, but honest peers
// still share load sanely.
func TestScenarioFreeRiderWave(t *testing.T) {
	runEntry(t, "free_rider_wave")
}

// TestScenarioFlashCrowdLive points a join storm at a live stream:
// waves of honest joiners tune in at the live edge while the original
// viewers chase the sliding window. The p99 live-edge lag must stay
// bounded.
func TestScenarioFlashCrowdLive(t *testing.T) {
	if res := runEntry(t, "flash_crowd_live"); len(res.LiveLag) == 0 {
		t.Fatalf("seed=%d: live run collected no lag samples", *chaosSeed)
	}
}

// TestJainFairnessInvariantFires is the intentional-violation fixture
// for the upload-fairness floor: one uploader carrying everything while
// another participant contributes nothing must trip the invariant, and
// the message must carry the scenario+seed replay line.
func TestJainFairnessInvariantFires(t *testing.T) {
	res := &Result{
		Scenario: "free_rider_wave",
		Seed:     321,
		Viewers: []*ViewerResult{
			{Name: "viewer-00", Stats: pdnclient.Stats{P2PUpBytes: 1 << 20, P2PDownBytes: 1}},
			{Name: "free_rider-000", Behavior: population.BehaviorFreeRider, Stats: pdnclient.Stats{P2PDownBytes: 1 << 20}},
		},
	}
	violations := Invariants{MaxStalls: -1, MinJainFairness: 0.9}.Check(res)
	if len(violations) != 1 {
		t.Fatalf("want 1 fairness violation, got %v", violations)
	}
	v := violations[0]
	if !strings.Contains(v, "jain fairness") || !strings.Contains(v, "scenario=free_rider_wave") || !strings.Contains(v, "seed=321") {
		t.Fatalf("fairness violation lacks replay info: %s", v)
	}
}

// TestLiveLagInvariantFires is the intentional-violation fixture for
// the live-edge lag bound: a p99 past the cap must trip it with the
// replay line attached.
func TestLiveLagInvariantFires(t *testing.T) {
	res := &Result{
		Scenario: "flash_crowd_live",
		Seed:     654,
		LiveLag:  []float64{1, 2, 2, 3, 80},
	}
	violations := Invariants{MaxStalls: -1, MaxLiveLagP99: 40}.Check(res)
	if len(violations) != 1 {
		t.Fatalf("want 1 lag violation, got %v", violations)
	}
	v := violations[0]
	if !strings.Contains(v, "live-edge lag p99") || !strings.Contains(v, "scenario=flash_crowd_live") || !strings.Contains(v, "seed=654") {
		t.Fatalf("lag violation lacks replay info: %s", v)
	}
}

// TestSybilShareInvariantFires is the intentional-violation fixture for
// the slot-share cap: a multi-identity host holding 90% of the grants
// must trip it with the replay line attached.
func TestSybilShareInvariantFires(t *testing.T) {
	res := &Result{
		Scenario: "sybil_flood",
		Seed:     111,
		HostStats: []signal.HostStat{
			{Identities: 30, PeakIdentities: 30, MatchGrants: 90},
			{Identities: 1, PeakIdentities: 1, MatchGrants: 10},
		},
	}
	violations := Invariants{MaxStalls: -1, MaxSybilSlotShare: 0.5}.Check(res)
	if len(violations) != 1 {
		t.Fatalf("want 1 sybil violation, got %v", violations)
	}
	v := violations[0]
	if !strings.Contains(v, "identity peak 30") || !strings.Contains(v, "scenario=sybil_flood") || !strings.Contains(v, "seed=111") {
		t.Fatalf("sybil violation lacks replay info: %s", v)
	}
}

// TestHonestNeighborsInvariantFires is the intentional-violation
// fixture for matcher integrity, driven through a real eclipse run: an
// impossible neighbor floor must fire for every honest survivor, each
// message carrying the scenario+seed replay line.
func TestHonestNeighborsInvariantFires(t *testing.T) {
	res, err := RunScenario(context.Background(), SwarmConfig{
		Viewers:  3,
		Segments: 3,
		Seed:     *chaosSeed,
	}, EclipseMatcher(10*time.Millisecond, 2))
	if err != nil {
		t.Fatalf("seed=%d: %v", *chaosSeed, err)
	}
	violations := Invariants{MaxStalls: -1, MinHonestNeighbors: 99}.Check(res)
	if len(violations) == 0 {
		t.Fatal("an impossible neighbor floor fired no violation")
	}
	for _, v := range violations {
		if !strings.Contains(v, "non-colluder neighbors") || !strings.Contains(v, "scenario=eclipse_matcher") || !strings.Contains(v, "seed=") {
			t.Fatalf("neighbor violation lacks replay info: %s", v)
		}
	}
}

// profileSeed pins the profile-comparison tests: CI rotates -chaos-seed
// for the scenario suite, but the cross-profile regressions compare
// timing-sensitive shares and stay on one committed seed.
const profileSeed = 20260805

// TestHardenedContainsSybilMill is the profile-regression half of the
// adversarial suite: the same 24-identity mill that squats the deployed
// profiles' matchers (no per-host accounting — the §IV squatting risk)
// must stay capped under Hardened's identity budget. Grant shares are
// timing-sensitive (how much honest matching overlaps the mill's
// joins), so only Hardened is held to an absolute cap; the deployed
// profiles — which advertise all 24 identities where Hardened's budget
// admits two — are gated relative to it. The ledger's identity peak is
// load-independent and must see the whole mill everywhere.
func TestHardenedContainsSybilMill(t *testing.T) {
	shares := make(map[string]float64)
	sc := SybilFlood(10*time.Millisecond, 24)
	for _, profile := range []string{"peer5", "streamroot", "hardened"} {
		res, err := RunScenario(context.Background(), SwarmConfig{
			Viewers:  10,
			Segments: 4,
			Seed:     profileSeed,
			Profile:  profile,
		}, sc)
		if err != nil {
			t.Fatalf("%s seed=%d: %v", profile, int64(profileSeed), err)
		}
		share, peak := res.SybilSlotShare()
		shares[profile] = share
		t.Logf("%s: sybil slot share %.2f (identity peak %d)", profile, share, peak)
		if peak != 24 {
			t.Errorf("%s: ledger saw identity peak %d, want the full 24-identity mill", profile, peak)
		}
	}
	for _, deployed := range []string{"peer5", "streamroot"} {
		if shares[deployed] <= shares["hardened"] {
			t.Errorf("%s held the mill to %.2f, at or below hardened's %.2f — without per-host accounting the squatting risk should reproduce",
				deployed, shares[deployed], shares["hardened"])
		}
	}
	if shares["hardened"] > 0.5 {
		t.Errorf("hardened let the mill take %.2f of match grants, cap 0.5", shares["hardened"])
	}
}

// TestHardenedKeepsLeechFarmFairness is the fairness half: a 32-member
// single-host leech farm floods the deployed profiles with zero-upload
// participants and drags Jain's index below Hardened's, while
// Hardened's identity budget quarantines the farm — at most the first
// in-budget identities ever exchange a P2P byte — and the honest
// swarm's index stays above the committed 0.25 bound. Only Hardened is
// held to the absolute bound; the deployed profiles' index is noisy
// enough under the race detector that they are gated relative to it
// plus the structural leech count.
func TestHardenedKeepsLeechFarmFairness(t *testing.T) {
	const fairnessBound = 0.25
	jains := make(map[string]float64)
	sc := FreeRiderWave(10*time.Millisecond, 32, 0, 0)
	for _, profile := range []string{"peer5", "streamroot", "hardened"} {
		res, err := RunScenario(context.Background(), SwarmConfig{
			Viewers:  10,
			Segments: 8,
			Seed:     profileSeed,
			Profile:  profile,
		}, sc)
		if err != nil {
			t.Fatalf("%s seed=%d: %v", profile, int64(profileSeed), err)
		}
		jain := res.JainFairness()
		leeching := 0
		for _, v := range res.Viewers {
			if v.Behavior == population.BehaviorFreeRider && v.Stats.P2PDownBytes > 0 {
				leeching++
			}
		}
		t.Logf("%s: jain fairness %.3f, %d/32 farm members leeched P2P bytes", profile, jain, leeching)
		jains[profile] = jain
		if profile == "hardened" {
			if jain < fairnessBound {
				t.Errorf("hardened fairness %.3f below committed bound %.2f", jain, fairnessBound)
			}
			if leeching > 2 {
				t.Errorf("hardened let %d farm members past the 2-identity budget", leeching)
			}
			continue
		}
		if leeching < 16 {
			t.Errorf("%s: only %d/32 farm members leeched — free-riding should reproduce undefended", profile, leeching)
		}
	}
	for _, deployed := range []string{"peer5", "streamroot"} {
		if jains[deployed] >= jains["hardened"] {
			t.Errorf("%s fairness %.3f should fall below hardened's %.3f under a farm only hardened can see",
				deployed, jains[deployed], jains["hardened"])
		}
	}
}
