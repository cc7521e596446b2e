package chaos

import (
	"sort"
	"time"
)

// Entry is one catalogued scenario: the swarm it runs against, its
// fault schedule and the invariants the run must hold. cmd/chaos and
// the scenario tests both run entries from the catalogue, so a shape,
// schedule or bound is defined here and nowhere else.
type Entry struct {
	// About is the one-line description cmd/chaos -list prints.
	About string
	// Swarm is the deployment shape; the caller sets Seed. Servers above
	// one is also a floor: the scenario needs that many plane members.
	Swarm      SwarmConfig
	Scenario   Scenario
	Invariants Invariants
}

// Lookup returns the catalogued scenario with the given name.
func Lookup(name string) (Entry, bool) {
	e, ok := catalog[name]
	return e, ok
}

// Names lists the catalogue's scenarios in sorted order.
func Names() []string {
	names := make([]string, 0, len(catalog))
	for name := range catalog {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// strict is what an infrastructure fault must leave intact: every
// surviving viewer plays everything, cleanly, without a stall.
var strict = Invariants{PlaybackCompletes: true, NoPollutedCache: true, NoViewerErrors: true}

// catalog is every shipped scenario, keyed by Scenario.Name.
var catalog = map[string]Entry{
	"peer_churn": {
		About:      "kill 40% of the swarm mid-playback; survivors evict and finish",
		Swarm:      SwarmConfig{Viewers: 5, Segments: 5},
		Scenario:   PeerChurn(25*time.Millisecond, 0.4),
		Invariants: strict,
	},
	"signal_partition": {
		About:      "blackhole the signaling server for a window; playback rides it out",
		Swarm:      SwarmConfig{Viewers: 5, Segments: 5},
		Scenario:   SignalPartition(20*time.Millisecond, 150*time.Millisecond),
		Invariants: strict,
	},
	"signal_crash": {
		About: "crash the 3-server plane member owning the swarm; viewers re-bootstrap",
		// "chaos-fed" hashes to s2 on the 3-server ring, so the scenario
		// can name its victim up front. Playback must outlast the crash
		// recovery: the first rejoin lands ~70ms after the kill (50ms
		// base backoff plus detection) and re-dials, re-joins and
		// re-gathers ICE, work that stretches under -race on loaded
		// runners while the pace clock does not. 12 segments at 20ms
		// keep viewers alive well past it.
		Swarm:      SwarmConfig{Viewers: 5, Segments: 12, Pace: 20 * time.Millisecond, Servers: 3, VideoID: "chaos-fed"},
		Scenario:   SignalCrash(20*time.Millisecond, NodeSignal+"-2"),
		Invariants: strict,
	},
	"cdn_brownout": {
		About:      "degrade CDN latency and bandwidth for a window; no hard stalls",
		Swarm:      SwarmConfig{Viewers: 5, Segments: 5},
		Scenario:   CDNBrownout(15*time.Millisecond, 100*time.Millisecond, 10*time.Millisecond, 512<<10),
		Invariants: strict,
	},
	"polluted_wire": {
		About: "corrupt one viewer's entire uplink; no polluted bytes may be cached",
		// Left at the harness's 2ms pace: stretched across the window,
		// the sick viewer's own CDN fetches corrupt mid-response and
		// each sits out the 10s HTTP timeout. Four viewers, not five:
		// every extra viewer adds connects to the sick node, and one
		// whose exchange is corrupted can wait out the 5s connect
		// timeout.
		Swarm:    SwarmConfig{Viewers: 4, Segments: 5, Pace: 2 * time.Millisecond, HashManifest: true},
		Scenario: PollutedWire(20*time.Millisecond, 120*time.Millisecond, "viewer-00"),
		// The sick node's own CDN requests corrupt too, so it is exempt
		// from completion and may stall on every segment; cache
		// integrity has no exemptions.
		Invariants: Invariants{PlaybackCompletes: true, NoPollutedCache: true, NoViewerErrors: true, Exempt: []string{"viewer-00"}},
	},
	"sybil_flood": {
		About: "one host joins under 40 identities against the hardened profile; its match-grant share stays capped",
		// Hardened geo-matches by country, so the honest swarm needs
		// country overlap to produce any honest match grants at all:
		// without that baseline the share denominator is degenerate and
		// the mill's ramp-up grants read as 100%.
		Swarm:      SwarmConfig{Viewers: 10, Segments: 5, Profile: "hardened"},
		Scenario:   SybilFlood(10*time.Millisecond, 40),
		Invariants: Invariants{PlaybackCompletes: true, NoPollutedCache: true, NoViewerErrors: true, MaxSybilSlotShare: 0.5},
	},
	"eclipse_matcher": {
		About: "colluders flood the candidate pool across a 3-server plane; honest viewers keep honest neighbors",
		// A slow pace keeps honest playback alive long enough for the
		// mid-run colluder band to reach the matcher.
		Swarm:      SwarmConfig{Viewers: 5, Segments: 5, Pace: 20 * time.Millisecond, Servers: 3, VideoID: "chaos-fed"},
		Scenario:   EclipseMatcher(15*time.Millisecond, 6),
		Invariants: Invariants{PlaybackCompletes: true, NoPollutedCache: true, NoViewerErrors: true, MinHonestNeighbors: 1},
	},
	"free_rider_wave": {
		About:    "a leech-farm wave drains the swarm and honest members churn; upload fairness keeps a floor",
		Swarm:    SwarmConfig{Viewers: 5, Segments: 5},
		Scenario: FreeRiderWave(10*time.Millisecond, 8, 60*time.Millisecond, 0.25),
		// The floor is a robustness bound (the index cannot collapse to
		// one uploader); the per-profile bounds live in the adversarial
		// regression tests.
		Invariants: Invariants{PlaybackCompletes: true, MaxStalls: -1, NoPollutedCache: true, NoViewerErrors: true, MinJainFairness: 0.05},
	},
	"key_compromise": {
		About:    "impersonators join under a leaked static key against the secure profile; possession proofs fail, the key is quarantined, nothing leaks",
		Swarm:    SwarmConfig{Viewers: 8, Segments: 8, Pace: 5 * time.Millisecond, Profile: "secure"},
		Scenario: KeyCompromise(10*time.Millisecond, 6),
		// Containment: the leaked key must actually get quarantined, not
		// just fail handshakes one at a time forever.
		Invariants: Invariants{PlaybackCompletes: true, MaxStalls: -1, NoPollutedCache: true, NoViewerErrors: true, MinSecureQuarantines: 1},
	},
	"flash_crowd_live": {
		About: "join-storm waves hit the plane while viewers chase a sliding live-HLS window; live-edge lag p99 stays bounded",
		// A live session is sized by the window, not the pace: six
		// segments take six slides of liveSegDur, which must outlast the
		// waves (five would not).
		Swarm:    SwarmConfig{Viewers: 5, Segments: 6, Pace: 5 * time.Millisecond, Live: true, VideoID: "chaos-live"},
		Scenario: FlashCrowdLive(10*time.Millisecond, 30*time.Millisecond, 3, 12),
		// Live playback tolerates skipped-window stalls; the property
		// under attack is staying near the edge.
		Invariants: Invariants{PlaybackCompletes: true, MaxStalls: -1, NoPollutedCache: true, NoViewerErrors: true, MaxLiveLagP99: 40},
	},
}
