package chaos

import (
	"fmt"
	"strings"

	"github.com/stealthy-peers/pdnsec/internal/signal"
)

// Invariants are the properties a scenario must not break. Each
// shipped scenario asserts an explicit instance; the checker returns
// human-readable violations that lead with the seed, because the seed
// is the reproduction: rerunning the same scenario with it replays an
// identical fault schedule.
type Invariants struct {
	// PlaybackCompletes demands every surviving viewer played the full
	// VOD — the "CDN fallback always saves playback" property.
	PlaybackCompletes bool
	// MaxStalls bounds the swarm-wide pdn_stalls_total counter, plus
	// one stall per segment for each Exempt viewer, which may skip
	// every segment it plays. Negative means unbounded.
	MaxStalls int64
	// NoPollutedCache demands every cached segment on every surviving
	// viewer verifies against the ground-truth video — rejected or
	// corrupt bytes must never enter the upload cache, or the swarm
	// would relay pollution.
	NoPollutedCache bool
	// NoViewerErrors demands surviving viewers finished without error
	// (graceful degradation, not hard failure).
	NoViewerErrors bool
	// Exempt names viewers excused from the completion/error/stall
	// checks — e.g. the designated sick node whose own uplink a
	// corruption scenario destroys. Cache integrity still applies to
	// them: even a sick node must never cache polluted bytes.
	Exempt []string
	// MinJainFairness is the floor for Jain's index over participants'
	// P2P upload bytes (0 = unchecked). Free-rider waves drag the index
	// toward 1/n; a defended swarm keeps it near 1.
	MinJainFairness float64
	// MinHonestNeighbors demands every surviving honest viewer had at
	// least this many non-colluder neighbors over its whole session
	// (0 = unchecked) — the matcher-integrity bound an eclipse attack
	// tries to break.
	MinHonestNeighbors int
	// MaxLiveLagP99 bounds the 99th-percentile live-edge lag in
	// segments (0 = unchecked). Only meaningful for Live runs.
	MaxLiveLagP99 float64
	// MaxSybilSlotShare caps the share of match grants the host with
	// the largest identity peak may take (0 = unchecked) — the
	// upload-slot squatting bound a Sybil mill attacks. Applied only
	// when the run granted at least sybilShareMinGrants matches.
	MaxSybilSlotShare float64
	// MinSecureQuarantines demands the signaling plane quarantined at
	// least this many static keys (0 = unchecked) — the key-compromise
	// scenario's containment bound: honest peers observing failed
	// possession proofs must get the leaked key cut from matching.
	MinSecureQuarantines int64
}

// sybilShareMinGrants is the matching-economy floor under which the
// Sybil slot-share cap does not apply — shares over a handful of
// grants are bootstrap noise, not squatting.
const sybilShareMinGrants = 10

// Check evaluates the invariants against a run, returning one message
// per violation (empty = all held).
func (inv Invariants) Check(res *Result) []string {
	var violations []string
	fail := func(format string, args ...any) {
		msg := fmt.Sprintf(format, args...)
		violations = append(violations, fmt.Sprintf("scenario=%s seed=%d: %s", res.Scenario, res.Seed, msg))
	}
	// stallTrace names the viewer's most recent failed-fetch trace so a
	// violation can be looked up directly in the run's pdntrace output
	// ("pdntrace run.jsonl", find the trace ID) instead of replayed blind.
	stallTrace := func(v *ViewerResult) string {
		if v.Peer == nil {
			return ""
		}
		if id := v.Peer.LastStallTrace(); id != "" {
			return " trace=" + id
		}
		return ""
	}

	exempt := make(map[string]bool, len(inv.Exempt))
	for _, name := range inv.Exempt {
		exempt[name] = true
	}
	colluder := make(map[string]bool, len(res.Colluders))
	for _, id := range res.Colluders {
		colluder[id] = true
	}
	for _, v := range res.Survivors() {
		// Adversarial viewers are exempt from the cooperation checks —
		// refusing to finish or failing is their job — but never from
		// cache integrity: even a colluder must not relay pollution.
		if v.Honest() {
			if inv.PlaybackCompletes && !exempt[v.Name] && v.Stats.SegmentsPlayed < res.Segments {
				fail("%s played %d/%d segments%s", v.Name, v.Stats.SegmentsPlayed, res.Segments, stallTrace(v))
			}
			if inv.NoViewerErrors && !exempt[v.Name] && v.Err != nil {
				fail("%s finished with error: %v%s", v.Name, v.Err, stallTrace(v))
			}
			if inv.MinHonestNeighbors > 0 && !exempt[v.Name] && v.Peer != nil {
				honest := 0
				for _, id := range v.Peer.NeighborIDs() {
					if !colluder[id] {
						honest++
					}
				}
				if honest < inv.MinHonestNeighbors {
					fail("%s kept %d non-colluder neighbors, need >= %d (eclipse)", v.Name, honest, inv.MinHonestNeighbors)
				}
			}
		}
		if inv.NoPollutedCache && v.Peer != nil {
			for _, idx := range v.Peer.CachedIndices() {
				data, ok := v.Peer.CachedSegment(idx)
				if !ok {
					continue
				}
				if !res.Video.Verify(res.Rendition, idx, data) {
					fail("%s caches polluted segment %d", v.Name, idx)
				}
			}
		}
	}
	if inv.MaxStalls >= 0 {
		bound := inv.MaxStalls + int64(len(inv.Exempt)*res.Segments)
		if stalls := res.Counter("pdn_stalls_total"); stalls > bound {
			// The bound is swarm-wide, so cite every surviving viewer's
			// last stall trace — one of them is the offender.
			var ids []string
			for _, v := range res.Survivors() {
				if t := stallTrace(v); t != "" {
					ids = append(ids, v.Name+t)
				}
			}
			fail("pdn_stalls_total=%d exceeds bound %d (%s)", stalls, bound, strings.Join(ids, ", "))
		}
	}
	if inv.MinJainFairness > 0 {
		if j := res.JainFairness(); j < inv.MinJainFairness {
			fail("jain fairness %.3f below floor %.3f (free-riding)", j, inv.MinJainFairness)
		}
	}
	if inv.MaxLiveLagP99 > 0 {
		if lag := res.LiveLagP99(); lag > inv.MaxLiveLagP99 {
			fail("live-edge lag p99 %.1f segments exceeds bound %.1f over %d samples", lag, inv.MaxLiveLagP99, len(res.LiveLag))
		}
	}
	if inv.MinSecureQuarantines > 0 {
		if q := res.Counter("signal_secure_quarantines_total"); q < inv.MinSecureQuarantines {
			fail("signaling plane quarantined %d static keys, need >= %d (key compromise uncontained)", q, inv.MinSecureQuarantines)
		}
	}
	if inv.MaxSybilSlotShare > 0 {
		// A share is only meaningful over a real matching economy: a
		// quarantined mill's first in-budget identities trading a couple
		// of bootstrap grants before honest matching starts would read
		// as 100%. Below the floor there is nothing to squat.
		total := signal.TotalGrants(res.HostStats)
		if share, peak := res.SybilSlotShare(); share > inv.MaxSybilSlotShare && total >= sybilShareMinGrants {
			fail("host with identity peak %d took %.0f%% of %d match grants, cap %.0f%% (sybil)", peak, share*100, total, inv.MaxSybilSlotShare*100)
		}
	}
	return violations
}
