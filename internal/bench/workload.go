// Package bench is the repository's one performance harness: it drives
// named workloads against the real stack (analyzer.Testbed → provider →
// signal/federation → ice/stun → dtls|secure → wire → pdnclient →
// cdn/hls/media over netsim), reports viewer-level end-to-end metrics,
// and splits them per layer with probes, obs counters and a traced
// repetition. Every layer is measured from outside: the harness only
// calls exported functions and turns on the tracing/registry hooks
// analyzer.TestbedConfig already exposes. README.md in this directory
// says why each workload exists and how the metrics interact.
package bench

import (
	"time"

	"github.com/stealthy-peers/pdnsec/internal/provider"
)

// Workload is one named input shape. Names are stable: later issues and
// BENCHMARK.json cite them.
type Workload struct {
	Name string
	// Why is the one-line reason the workload exists (BENCHMARK.json
	// carries the same text).
	Why string
	// Gated workloads are the ones BENCHMARK.json lists: they report every
	// end-to-end metric, never zero, steadily enough for its bounds. The
	// others run from the command line (README, "What the driver contract
	// changed").
	Gated bool

	// Viewer shape. Sessions run in a closed loop of viewerSlots slots,
	// each slot in its own swarm with Seeders seeders.
	Profile    func() provider.Profile
	Seeders    int
	Segments   int // per session
	SegBytes   int
	DisableP2P bool
	// LiftUploadCap zeroes Policy.MaxUploadBytes: two seeders stand in
	// for many sessions, so the per-session upload budget of the
	// hardened/secure profiles would turn a long run into CDN fallback.
	LiftUploadCap bool
	// MinOffload, when > 0, is the sizing guard on cdn_offload_ratio.
	MinOffload float64

	// Signal, when set, makes this a signaling-plane-only workload.
	Signal *SignalShape
}

// SignalShape sizes the signaling-plane workload.
type SignalShape struct {
	Servers, Shards, Swarms, PeersPerSwarm int
	Churn                                  float64
	RelayRounds                            int
}

// viewerSlots is the closed-loop client count and generator concurrency,
// fixed for every workload: a slot starts its next viewer when the
// previous one's Run returns.
const viewerSlots = 2

// Workloads returns the five workloads in report order.
func Workloads() []Workload {
	return []Workload{
		{
			Name:     "vod_deployed",
			Gated:    true,
			Why:      "Long Peer5 sessions (500 x 256 KiB, one seeder per slot), one connect each: dtls records, pdnclient framing/cache and netsim streams do the work; signal/ice do little.",
			Profile:  provider.Peer5,
			Seeders:  1,
			Segments: 500, SegBytes: 256 << 10,
			MinOffload: 0.95,
		},
		{
			Name:     "vod_secure",
			Gated:    true,
			Why:      "Same swarm on the Secure profile (upload cap lifted): its ratio to vod_deployed is the cost of Noise-IK handshake, AEAD records and signed-manifest verify.",
			Profile:  provider.Secure,
			Seeders:  1,
			Segments: 500, SegBytes: 256 << 10,
			LiftUploadCap: true,
			MinOffload:    0.95,
		},
		{
			Name:     "churn_deployed",
			Why:      "Short Peer5 sessions (6 x 16 KiB, one seeder per slot): join, match, ICE/STUN, handshake and teardown dominate, bytes are negligible; a data-plane change must not move it.",
			Profile:  provider.Peer5,
			Seeders:  1,
			Segments: 6, SegBytes: 16 << 10,
		},
		{
			Name:     "cdn_only",
			Gated:    true,
			Why:      "The paper's no-peer control: DisableP2P viewers (100 x 256 KiB) bypass signal/ice/records and pull every byte over HTTP, so a gain for P2P that costs the CDN path shows.",
			Profile:  provider.Peer5,
			Segments: 100, SegBytes: 256 << 10,
			DisableP2P: true,
		},
		{
			Name: "signal_20k",
			Why:  "Signaling plane alone at scale: 3 federated servers x 16 shards, 4 swarms x 5000 virtual peers join, churn 20%, match once and relay twice; no data plane, no session lifecycle.",
			Signal: &SignalShape{
				Servers: 3, Shards: 16, Swarms: 4, PeersPerSwarm: 5000,
				Churn: 0.2, RelayRounds: 2,
			},
		},
	}
}

// WorkloadByName finds a workload.
func WorkloadByName(name string) (Workload, bool) {
	for _, w := range Workloads() {
		if w.Name == name {
			return w, true
		}
	}
	return Workload{}, false
}

// Size scales one repetition. The zero value of a field keeps the
// workload's own shape.
type Size struct {
	// Window is how long a viewer repetition keeps starting sessions.
	// Sessions in flight at the deadline finish and count.
	Window time.Duration
	// MaxSessions caps the sessions one repetition starts (0 = only the
	// window bounds it). Tests use it for toy runs.
	MaxSessions int
	// Segments overrides the per-session segment count.
	Segments int
	// PeersPerSwarm overrides the signaling workload's population.
	PeersPerSwarm int
}
