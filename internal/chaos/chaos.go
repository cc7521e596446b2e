// Package chaos turns the testbed into a fault-injection harness: it
// schedules impairments (peer churn, partitions, CDN brownouts, wire
// corruption) against a running swarm and checks that the properties
// the paper's measurements rely on survive them — playback always
// completes via CDN fallback, stalls stay bounded, and rejected
// segments never enter a peer's upload cache.
//
// Scenarios are declarative fault schedules. An Engine unfolds a
// schedule against a registered node roster, driving the netsim
// impairment hooks, and records every injected fault in a JSONL event
// log. The log is a pure function of (scenario, roster, seed): it
// captures what was injected and when on the scenario clock, never
// wall-clock timestamps or runtime reactions, so the same seed
// reproduces a byte-identical log — the property the determinism suite
// pins down and failure messages lean on ("rerun with this seed").
//
// Every shipped scenario, with the swarm it runs against and the
// invariants it must hold, is one entry in the catalogue (Lookup,
// Names) that cmd/chaos and the scenario tests share.
package chaos

import (
	"fmt"
	"time"

	"github.com/stealthy-peers/pdnsec/internal/population"
)

// Canonical roster names for the testbed's infrastructure machines.
// Viewers use their own names (the swarm harness assigns "viewer-NN").
const (
	NodeCDN    = "cdn"
	NodeSignal = "signal"
)

// FaultKind enumerates the injectable faults.
type FaultKind string

const (
	// FaultKillFraction crashes a seeded random fraction of the killable
	// roster (nodes registered with a Kill hook).
	FaultKillFraction FaultKind = "kill_fraction"
	// FaultKillNodes crashes explicitly named nodes.
	FaultKillNodes FaultKind = "kill_nodes"
	// FaultPartition cuts a node off from every other host.
	FaultPartition FaultKind = "partition"
	// FaultHeal reverses a partition.
	FaultHeal FaultKind = "heal"
	// FaultSlow sets a node's access latency and bandwidth cap
	// (zero values restore full speed — a "brownout" ends with one).
	FaultSlow FaultKind = "slow"
	// FaultLinkLoss installs a directed per-link datagram loss rate.
	FaultLinkLoss FaultKind = "link_loss"
	// FaultCorrupt mangles stream chunks sent by a node.
	FaultCorrupt FaultKind = "corrupt"
	// FaultClearCorrupt removes a corruption rule.
	FaultClearCorrupt FaultKind = "clear_corrupt"
	// FaultSpawn injects a band of population members mid-run — the
	// behavioral counterpart of the infrastructure faults. The engine
	// hands the band to the harness's spawn driver; the log records only
	// the schedule's parameters (behavior, count), never runtime
	// reactions, so spawn-bearing scenarios replay byte-identically too.
	FaultSpawn FaultKind = "spawn"
)

// Step is one scheduled fault. At is an offset on the scenario clock
// (from engine start), not a wall-clock time.
type Step struct {
	At    time.Duration
	Fault FaultKind

	// Parameters; which ones apply depends on Fault.
	Frac     float64       // kill_fraction: fraction of killable nodes
	Nodes    []string      // kill_nodes / partition / heal / slow / corrupt targets
	From, To string        // link_loss endpoints (directed)
	Prob     float64       // link_loss / corrupt probability
	Truncate bool          // corrupt: truncate instead of flipping bytes
	Latency  time.Duration // slow: access latency to set
	RateBps  int64         // slow: bandwidth cap in bytes/sec (0 = unlimited)
	Behavior string        // spawn: population behavior to inject
	Count    int           // spawn: band size
}

// Scenario is a named, ordered fault schedule.
type Scenario struct {
	Name  string
	Steps []Step
}

// KillFraction schedules crashing the given fraction of killable nodes
// at the offset. Which nodes die is drawn from the engine's seeded RNG.
func KillFraction(at time.Duration, frac float64) Step {
	return Step{At: at, Fault: FaultKillFraction, Frac: frac}
}

// KillNodes schedules crashing the named nodes.
func KillNodes(at time.Duration, names ...string) Step {
	return Step{At: at, Fault: FaultKillNodes, Nodes: names}
}

// PartitionNode schedules cutting the named node off from the network.
func PartitionNode(at time.Duration, name string) Step {
	return Step{At: at, Fault: FaultPartition, Nodes: []string{name}}
}

// HealNode schedules reversing a PartitionNode.
func HealNode(at time.Duration, name string) Step {
	return Step{At: at, Fault: FaultHeal, Nodes: []string{name}}
}

// Slow schedules setting a node's access latency and bandwidth cap;
// Slow(at, name, 0, 0) restores full speed.
func Slow(at time.Duration, name string, latency time.Duration, rateBps int64) Step {
	return Step{At: at, Fault: FaultSlow, Nodes: []string{name}, Latency: latency, RateBps: rateBps}
}

// LinkLoss schedules a directed per-link datagram loss probability;
// p=0 restores the link, p=1 blackholes it.
func LinkLoss(at time.Duration, from, to string, p float64) Step {
	return Step{At: at, Fault: FaultLinkLoss, From: from, To: to, Prob: p}
}

// CorruptFrom schedules mangling each stream chunk the named node sends
// with probability p (truncation instead of byte flips when truncate).
func CorruptFrom(at time.Duration, name string, p float64, truncate bool) Step {
	return Step{At: at, Fault: FaultCorrupt, Nodes: []string{name}, Prob: p, Truncate: truncate}
}

// ClearCorruptFrom schedules removing a CorruptFrom rule.
func ClearCorruptFrom(at time.Duration, name string) Step {
	return Step{At: at, Fault: FaultClearCorrupt, Nodes: []string{name}}
}

// Spawn schedules injecting count population members of the given
// behavior at the offset (requires a spawn driver on the engine).
func Spawn(at time.Duration, behavior population.Behavior, count int) Step {
	return Step{At: at, Fault: FaultSpawn, Behavior: string(behavior), Count: count}
}

// PeerChurn is the "viewers close the tab" scenario: a fraction of the
// swarm crashes at once mid-playback. Survivors must evict the dead
// neighbors and finish via re-matching or CDN fallback.
func PeerChurn(at time.Duration, frac float64) Scenario {
	return Scenario{
		Name:  "peer_churn",
		Steps: []Step{KillFraction(at, frac)},
	}
}

// SignalPartition blackholes the signaling server for a window. Peers
// that joined keep playing (P2P with the neighbors they have, CDN
// otherwise); their reconnect loops restore signaling after the heal.
func SignalPartition(at, dur time.Duration) Scenario {
	return Scenario{
		Name: "signal_partition",
		Steps: []Step{
			PartitionNode(at, NodeSignal),
			HealNode(at+dur, NodeSignal),
		},
	}
}

// CDNBrownout degrades the CDN origin (added latency + bandwidth cap)
// for a window, then restores it. Playback must ride it out on the
// swarm's caches without unbounded stalling.
func CDNBrownout(at, dur, latency time.Duration, rateBps int64) Scenario {
	return Scenario{
		Name: "cdn_brownout",
		Steps: []Step{
			Slow(at, NodeCDN, latency, rateBps),
			Slow(at+dur, NodeCDN, 0, 0),
		},
	}
}

// SignalCrash kills one member of a federated signaling plane
// mid-playback. The ring hands its swarms to the survivors; stranded
// viewers must re-bootstrap through their peerstores and finish
// playback — the plane-level crash-recovery path under a real swarm.
func SignalCrash(at time.Duration, server string) Scenario {
	return Scenario{
		Name:  "signal_crash",
		Steps: []Step{KillNodes(at, server)},
	}
}

// PollutedWire corrupts every stream chunk a node sends for a window —
// the in-flight counterpart of the paper's pollution attack. DTLS
// authentication turns corrupt P2P records into dead connections, so
// the invariant under this scenario is eviction plus CDN fallback, not
// poisoned caches.
func PollutedWire(at, dur time.Duration, node string) Scenario {
	return Scenario{
		Name: "polluted_wire",
		Steps: []Step{
			CorruptFrom(at, node, 1, false),
			ClearCorruptFrom(at+dur, node),
		},
	}
}

// SybilFlood is the paper's resource-squatting risk at population
// scale: one host joins the swarm under `identities` peer identities,
// aiming to absorb the matcher's upload-slot grants. The invariant
// under it is the Sybil slot-share cap — and with the Hardened
// profile's per-host identity budget, quarantine of the whole mill.
func SybilFlood(at time.Duration, identities int) Scenario {
	return Scenario{
		Name:  "sybil_flood",
		Steps: []Step{Spawn(at, population.BehaviorSybil, identities)},
	}
}

// EclipseMatcher floods the swarm with colluders that accept every
// connection and serve nothing, trying to saturate honest peers'
// neighbor pools. The invariant is matcher integrity: every honest
// peer keeps at least K non-colluder neighbors.
func EclipseMatcher(at time.Duration, colluders int) Scenario {
	return Scenario{
		Name:  "eclipse_matcher",
		Steps: []Step{Spawn(at, population.BehaviorEclipse, colluders)},
	}
}

// FreeRiderWave injects a wave of leechers — full viewers that
// download from peers but refuse every upload (§IV-B free-riding at
// population scale) — then churns a fraction of the honest swarm while
// the wave is still draining it. The churn step also makes the fault
// log seed-dependent, which is what the divergent-seed determinism
// check leans on. The invariant is the upload-fairness floor.
func FreeRiderWave(at time.Duration, leechers int, churnAt time.Duration, churnFrac float64) Scenario {
	steps := []Step{Spawn(at, population.BehaviorFreeRider, leechers)}
	if churnFrac > 0 {
		steps = append(steps, KillFraction(churnAt, churnFrac))
	}
	return Scenario{Name: "free_rider_wave", Steps: steps}
}

// KeyCompromise models a leaked static identity key: `impersonators`
// peers join the swarm registering a key scraped from an honest viewer
// (the harness leaks viewer-00's). The matcher vouches for the key —
// the credential the join presented was valid — but every handshake
// fails the possession proof, so under the secure profile honest peers
// report the key and the signaling plane quarantines it. The invariant
// is MinSecureQuarantines; deployed profiles never quarantine (no
// possession proof exists), which is what the fire-test pins.
func KeyCompromise(at time.Duration, impersonators int) Scenario {
	return Scenario{
		Name:  "key_compromise",
		Steps: []Step{Spawn(at, population.BehaviorImpersonator, impersonators)},
	}
}

// FlashCrowdLive models a flash crowd against a live stream: `waves`
// bursts of `perWave` honest joiners hit the signaling plane at
// `interval` spacing while the original viewers chase a sliding
// live-HLS window. The invariant is the live-edge lag p99 bound —
// the join storm must not knock established viewers off the edge.
func FlashCrowdLive(start, interval time.Duration, waves, perWave int) Scenario {
	steps := make([]Step, 0, waves)
	for i := 0; i < waves; i++ {
		steps = append(steps, Spawn(start+time.Duration(i)*interval, population.BehaviorHonest, perWave))
	}
	return Scenario{Name: "flash_crowd_live", Steps: steps}
}

// Span is the offset of the scenario's last step: how long the schedule
// takes to unfold on the scenario clock.
func (sc Scenario) Span() time.Duration {
	var last time.Duration
	for _, st := range sc.Steps {
		last = max(last, st.At)
	}
	return last
}

// PaceToOutlast returns the inter-segment delay at which a viewer
// playing the given number of segments outlasts the schedule with room
// to react: its paced time alone is outlastFactor spans, however little
// the fetches and connects between the delays cost. A behavioral band
// (a mill, a colluder pool, a leech farm) is only measured by what the
// honest swarm does after it arrives, so a session must not be sized by
// what a connect happens to cost.
func (sc Scenario) PaceToOutlast(segments int) time.Duration {
	return (outlastFactor*sc.Span() + time.Duration(segments) - 1) / time.Duration(segments)
}

// outlastFactor is how many schedule spans a PaceToOutlast session
// lasts: the last step lands in its first quarter.
const outlastFactor = 4

// Validate rejects malformed steps before a run starts (probabilities
// out of range, missing targets, negative offsets).
func (sc Scenario) Validate() error {
	for i, st := range sc.Steps {
		if st.At < 0 {
			return fmt.Errorf("chaos: step %d: negative offset %v", i, st.At)
		}
		switch st.Fault {
		case FaultKillFraction:
			if !(st.Frac >= 0 && st.Frac <= 1) {
				return fmt.Errorf("chaos: step %d: kill fraction %v outside [0,1]", i, st.Frac)
			}
		case FaultKillNodes, FaultPartition, FaultHeal, FaultSlow, FaultClearCorrupt:
			if len(st.Nodes) == 0 {
				return fmt.Errorf("chaos: step %d: %s needs target nodes", i, st.Fault)
			}
		case FaultLinkLoss:
			if st.From == "" || st.To == "" {
				return fmt.Errorf("chaos: step %d: link_loss needs from and to", i)
			}
			if !(st.Prob >= 0 && st.Prob <= 1) {
				return fmt.Errorf("chaos: step %d: link_loss probability %v outside [0,1]", i, st.Prob)
			}
		case FaultCorrupt:
			if len(st.Nodes) == 0 {
				return fmt.Errorf("chaos: step %d: corrupt needs target nodes", i)
			}
			if !(st.Prob >= 0 && st.Prob <= 1) {
				return fmt.Errorf("chaos: step %d: corrupt probability %v outside [0,1]", i, st.Prob)
			}
		case FaultSpawn:
			if !population.Behavior(st.Behavior).Valid() {
				return fmt.Errorf("chaos: step %d: unknown behavior %q", i, st.Behavior)
			}
			if st.Count < 1 {
				return fmt.Errorf("chaos: step %d: spawn needs a positive count", i)
			}
		default:
			return fmt.Errorf("chaos: step %d: unknown fault %q", i, st.Fault)
		}
	}
	return nil
}
