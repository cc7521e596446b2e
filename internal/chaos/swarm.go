package chaos

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"time"

	"github.com/stealthy-peers/pdnsec/internal/analyzer"
	"github.com/stealthy-peers/pdnsec/internal/media"
	"github.com/stealthy-peers/pdnsec/internal/obs"
	"github.com/stealthy-peers/pdnsec/internal/pdnclient"
	"github.com/stealthy-peers/pdnsec/internal/population"
	"github.com/stealthy-peers/pdnsec/internal/provider"
	"github.com/stealthy-peers/pdnsec/internal/signal"
)

// liveSegDur is the live asset's segment duration in seconds. Tiny, so
// the live edge advances at harness speed and a run sees the playlist
// window slide many times.
const liveSegDur = 0.05

// segBytes is the size of every segment a scenario's asset serves.
const segBytes = 12 << 10

// SwarmConfig sizes the deployment a scenario runs against.
type SwarmConfig struct {
	// Viewers is the swarm size (at least one).
	Viewers int
	// Segments is the VOD length each viewer plays (at least one).
	Segments int
	// Seed drives everything random: provider matching, viewer neighbor
	// selection, and the engine's fault targeting.
	Seed int64
	// Pace is each viewer's inter-segment delay — it is what gives
	// mid-playback faults a playback to land in. Zero sizes it by the
	// schedule (Scenario.PaceToOutlast): a fault that lands after
	// playback has finished tests nothing, and how long unpaced playback
	// takes is whatever connects and fetches happen to cost.
	Pace time.Duration
	// HashManifest makes viewers verify every segment against the
	// CDN-served hash list.
	HashManifest bool
	// Shards stripes the signaling server's swarm state. Zero keeps the
	// single-stripe layout; large-swarm scenarios (-viewers up to 10k)
	// want 16.
	Shards int
	// Servers federates the signaling plane across this many servers
	// (zero or one keeps the classic single server). Each extra server
	// runs on its own host and registers as an engine node
	// ("signal-1", "signal-2", ...) so scenarios can crash or partition
	// individual plane members.
	Servers int
	// VideoID names the VOD asset (default "chaos"). Federated
	// scenarios pick IDs whose swarm hashes to a specific plane member
	// — the ring is deterministic, so the choice is stable.
	VideoID string
	// Profile names the provider profile to deploy ("" = peer5). The
	// adversarial regression suite reruns one scenario across profiles
	// to compare their counter-knobs (Hardened's per-host identity
	// budget against the deployed services' per-identity matchers).
	Profile string
	// Live serves a sliding-window live asset instead of a VOD: viewers
	// tune in near the live edge (LiveEdgeSegments) and sample their
	// live-edge lag at every played segment for the lag-p99 invariant.
	Live bool
	// Traces, when set, gives every deployed process (signaling servers,
	// CDN, viewers) a process-stamped tracer. The JSONL it collects is
	// what lets a violation's trace ID be looked up in pdntrace.
	Traces *obs.TraceSet
}

// ViewerResult is one viewer's outcome.
type ViewerResult struct {
	Name   string
	Killed bool // crashed by the scenario; exempt from completion checks
	// Behavior classifies the viewer; empty means honest (the core
	// swarm). Adversarial viewers are exempt from the completion and
	// error invariants — refusing to cooperate is their job — but never
	// from cache integrity.
	Behavior population.Behavior
	Stats    pdnclient.Stats
	Err      error
	Peer     *pdnclient.Peer
}

// Honest reports whether the viewer is a protocol-following member.
func (v *ViewerResult) Honest() bool {
	return v.Behavior == "" || v.Behavior == population.BehaviorHonest
}

// Result is everything a scenario run produced, for invariant checks
// and reproduction: the seed, the JSONL fault log, the shared metrics
// registry, and per-viewer outcomes.
type Result struct {
	Scenario  string
	Seed      int64
	Events    []Event
	Log       []byte
	Obs       *obs.Registry
	Video     *media.Video
	Rendition string
	Segments  int
	Viewers   []*ViewerResult
	// Colluders lists the peer IDs of eclipse-behavior viewers, for the
	// matcher-integrity invariant (honest peers must keep non-colluder
	// neighbors).
	Colluders []string
	// LiveLag holds every live-edge lag sample (in segments) honest
	// viewers took while playing a live asset.
	LiveLag []float64
	// HostStats is the signaling plane's anonymized per-host matcher
	// footprint at run end — identity peaks and match-grant counts, no
	// addresses — for the Sybil slot-share invariant.
	HostStats []signal.HostStat
}

// Counter reads a counter from the swarm's shared registry (0 if the
// counter never registered).
func (r *Result) Counter(name string) int64 {
	//lint:ignore pdnlint/obsnames read-side lookup of an already-registered counter; the literal names live at the registration sites
	return r.Obs.Counter(name, "").Value()
}

// Survivors returns the viewers the scenario did not crash.
func (r *Result) Survivors() []*ViewerResult {
	out := make([]*ViewerResult, 0, len(r.Viewers))
	for _, v := range r.Viewers {
		if !v.Killed {
			out = append(out, v)
		}
	}
	return out
}

// JainFairness computes Jain's index over the P2P upload bytes of the
// run's participants (analyzer.UploadFairness).
func (r *Result) JainFairness() float64 {
	stats := make([]pdnclient.Stats, len(r.Viewers))
	for i, v := range r.Viewers {
		stats[i] = v.Stats
	}
	return analyzer.UploadFairness(stats)
}

// SybilSlotShare reports the share of all match grants that went to
// the host with the largest identity peak, plus that peak. With no
// multi-identity host present the share is 0.
func (r *Result) SybilSlotShare() (share float64, peak int) {
	return signal.MaxHostShare(r.HostStats)
}

// LiveLagP99 is the 99th-percentile live-edge lag in segments (0 when
// the run collected no samples).
func (r *Result) LiveLagP99() float64 {
	s := append([]float64(nil), r.LiveLag...)
	sort.Float64s(s)
	return obs.Quantile(s, 0.99)
}

// resolveProfile maps a SwarmConfig profile name to the provider model.
func resolveProfile(name string) (provider.Profile, error) {
	if name == "" {
		return provider.Peer5(), nil
	}
	for _, p := range provider.AllProfiles() {
		if p.Name == name {
			return p, nil
		}
	}
	return provider.Profile{}, fmt.Errorf("chaos: unknown provider profile %q", name)
}

// RunScenario deploys a fresh testbed, starts the swarm, unfolds the
// scenario against it, and returns the outcome once every viewer run
// ends. The returned error covers harness failures (deployment,
// malformed scenario); swarm-level damage is the point and lands in
// Result for the invariant checker.
func RunScenario(ctx context.Context, cfg SwarmConfig, sc Scenario) (*Result, error) {
	if cfg.Viewers < 1 || cfg.Segments < 1 {
		return nil, fmt.Errorf("chaos: %d viewers × %d segments: both must be at least one", cfg.Viewers, cfg.Segments)
	}
	if cfg.Pace <= 0 {
		cfg.Pace = sc.PaceToOutlast(cfg.Segments)
	}
	if cfg.VideoID == "" {
		cfg.VideoID = "chaos"
	}
	prof, err := resolveProfile(cfg.Profile)
	if err != nil {
		return nil, err
	}
	rctx, cancel := context.WithTimeout(ctx, 90*time.Second)
	defer cancel()

	video := analyzer.SmallVideo(cfg.VideoID, cfg.Segments, segBytes)
	if cfg.Live {
		video = analyzer.SmallLiveVideo(cfg.VideoID, segBytes, liveSegDur)
	}
	reg := obs.NewRegistry()
	tb, err := analyzer.NewTestbed(rctx, analyzer.TestbedConfig{
		Profile: prof,
		Video:   video,
		Obs:     reg,
		Traces:  cfg.Traces,
		Options: provider.Options{Seed: cfg.Seed, Shards: cfg.Shards, Servers: cfg.Servers},
	})
	if err != nil {
		return nil, err
	}
	defer tb.Close()

	eng := NewEngine(tb.Net, cfg.Seed)
	eng.Register(Node{Name: NodeCDN, Addr: tb.CDNHost.Addr(), Host: tb.CDNHost})
	// Killing a plane member also fails it on the ring: the engine's
	// host close is the crash, Plane.Fail is the plane's failure
	// detection noticing it — routers stop redirecting peers to the
	// corpse and its arcs fall to the survivors.
	failPlane := func(i int) func() {
		return func() { _ = tb.Dep.Plane.Fail(i) }
	}
	eng.Register(Node{Name: NodeSignal, Addr: tb.SignalHost.Addr(), Host: tb.SignalHost, Kill: failPlane(0), Infra: true})
	for i, h := range tb.SignalHosts[1:] {
		eng.Register(Node{Name: fmt.Sprintf("%s-%d", NodeSignal, i+1), Addr: h.Addr(), Host: h, Kill: failPlane(i + 1), Infra: true})
	}

	// Live-edge lag sampling, shared by core viewers and spawned honest
	// members. Lag is measured against the CDN's live edge at play time.
	var lagMu sync.Mutex
	var liveLag []float64
	lagHist := reg.Histogram("chaos_live_lag_segments", "live-edge lag in segments, sampled at every segment an honest viewer plays")
	sampleLag := func(key media.SegmentKey, _ []byte, _ string) {
		lag := float64(tb.CDN.LiveEdge(key.Video) - key.Index)
		lagMu.Lock()
		liveLag = append(liveLag, lag)
		lagMu.Unlock()
		lagHist.Observe(int64(lag))
	}

	// When the scenario spawns full viewers (a leech farm, a flash crowd),
	// a core viewer that finishes first keeps its tab open and serves
	// until the band has played out. Left to tear down at its own last
	// segment, the honest swarm races the band's connection setup, and
	// "how many free-riders leeched" measures who won that race.
	servesBand := false
	for _, st := range sc.Steps {
		if st.Fault == FaultSpawn && (st.Behavior == string(population.BehaviorFreeRider) || st.Behavior == string(population.BehaviorHonest)) {
			servesBand = true
		}
	}

	viewers := make([]*ViewerResult, cfg.Viewers)
	var wg sync.WaitGroup
	for i := 0; i < cfg.Viewers; i++ {
		name := fmt.Sprintf("viewer-%02d", i)
		host, err := tb.NewViewerHost(analyzer.ViewerCountry(i))
		if err != nil {
			cancel()
			wg.Wait()
			return nil, err
		}
		vcfg := tb.ViewerConfig(host, cfg.Seed+int64(i)+1)
		vcfg.MaxSegments = cfg.Segments
		vcfg.Pace = cfg.Pace
		vcfg.GracefulDegrade = true
		vcfg.VerifyHashManifest = cfg.HashManifest
		if cfg.Live {
			vcfg.LiveEdgeSegments = 3
			vcfg.OnSegment = sampleLag
		}
		if servesBand {
			vcfg.Linger = 5 * time.Minute // ended below, once the band has played out
		}
		peer, err := pdnclient.New(vcfg)
		if err != nil {
			cancel()
			wg.Wait()
			return nil, err
		}
		vctx, vcancel := context.WithCancel(rctx)
		eng.Register(Node{Name: name, Addr: host.Addr(), Host: host, Kill: vcancel})
		vr := &ViewerResult{Name: name, Behavior: population.BehaviorHonest, Peer: peer}
		viewers[i] = vr
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer vcancel()
			vr.Stats, vr.Err = peer.Run(vctx)
		}()
	}

	// The spawner materializes FaultSpawn bands. Its peers live under a
	// child context so teardown can end lingering colluders and Sybil
	// identities after the core swarm finishes.
	spawnCtx, spawnCancel := context.WithCancel(rctx)
	defer spawnCancel()
	sp := &spawner{tb: tb, cfg: cfg, ctx: spawnCtx, onSegment: sampleLag}
	// Key-compromise bands impersonate the first core viewer: its static
	// key is the one the scenario treats as leaked.
	if len(viewers) > 0 && viewers[0].Peer != nil {
		sp.leakedKey = viewers[0].Peer.StaticKeyHex
	}
	eng.SetSpawnDriver(sp.drive)

	if err := eng.Run(rctx, sc); err != nil && rctx.Err() == nil {
		cancel()
		wg.Wait()
		spawnCancel()
		sp.wgFull.Wait()
		sp.wg.Wait()
		return nil, fmt.Errorf("chaos: scenario %s: %w", sc.Name, err)
	}
	// Spawned full viewers (flash-crowd joiners, leech-farm members) get
	// to finish their own playback, with the core swarm still online to
	// serve them; only then are lingering colluders and Sybil identities
	// torn down. A fast honest swarm can finish while the mill's later
	// identities are still mid-join, so each lingerer first plays its one
	// segment, which settles its join — the host ledger's identity peak
	// must reflect the whole mill, not a teardown race.
	sp.wgFull.Wait()
	for _, v := range viewers {
		v.Peer.StopLinger()
	}
	wg.Wait()
	for _, vr := range sp.results() {
		<-vr.Peer.Played()
	}
	spawnCancel()
	sp.wg.Wait()

	killed := make(map[string]bool)
	for _, name := range eng.Killed() {
		killed[name] = true
	}
	for _, v := range viewers {
		v.Killed = killed[v.Name]
	}
	viewers = append(viewers, sp.results()...)

	var colluders []string
	for _, v := range viewers {
		if v.Behavior == population.BehaviorEclipse && v.Peer != nil {
			if id := v.Peer.ID(); id != "" {
				colluders = append(colluders, id)
			}
		}
	}
	sort.Strings(colluders)

	res := &Result{
		Scenario:  sc.Name,
		Seed:      cfg.Seed,
		Events:    eng.Events(),
		Log:       eng.LogBytes(),
		Obs:       reg,
		Video:     video,
		Rendition: video.Renditions[0].Name,
		Segments:  cfg.Segments,
		Viewers:   viewers,
		Colluders: colluders,
		LiveLag:   liveLag,
		HostStats: tb.HostStats(),
	}
	reg.GaugeFunc("chaos_jain_fairness", "Jain upload-fairness index over the run's P2P participants", res.JainFairness)
	return res, nil
}

// spawner builds the peers FaultSpawn bands call for. All spawned
// members are full pdnclient peers running under the harness's spawn
// context; their outcomes land in extra (merged into Result.Viewers).
type spawner struct {
	tb  *analyzer.Testbed
	cfg SwarmConfig
	ctx context.Context
	// onSegment is the harness's live-lag sampler, shared with spawned
	// honest viewers on live runs.
	onSegment func(key media.SegmentKey, data []byte, source string)
	// leakedKey returns the static key a key-compromise band registers
	// as its own (the first core viewer's — the "victim" of the leak).
	leakedKey func() string
	// wgFull tracks spawned full viewers — honest joiners and
	// free-riders, waited to completion; wg tracks everyone else (ended
	// by cancelling the spawn context).
	wgFull sync.WaitGroup
	wg     sync.WaitGroup

	mu      sync.Mutex
	extra   []*ViewerResult
	spawned map[population.Behavior]int
}

// nextIndex reserves a per-behavior sequence number.
func (sp *spawner) nextIndex(b population.Behavior) int {
	sp.mu.Lock()
	defer sp.mu.Unlock()
	if sp.spawned == nil {
		sp.spawned = make(map[population.Behavior]int)
	}
	n := sp.spawned[b]
	sp.spawned[b] = n + 1
	return n
}

// results returns the spawned full viewers' outcomes.
func (sp *spawner) results() []*ViewerResult {
	sp.mu.Lock()
	defer sp.mu.Unlock()
	return append([]*ViewerResult(nil), sp.extra...)
}

// drive is the engine's SpawnDriver: it materializes one band and
// returns once its members are started (not finished).
func (sp *spawner) drive(b population.Behavior, count int, _ time.Duration) error {
	if !b.Valid() {
		return fmt.Errorf("chaos: spawner cannot drive behavior %q", b)
	}
	return sp.spawnViewers(b, count)
}

// spawnViewers starts count pdnclient peers of the given behavior,
// placed and configured by the testbed's band rule. Honest members (the
// flash crowd) also tune in at the live edge on live runs, and
// impersonators register the leaked key instead of their own.
func (sp *spawner) spawnViewers(b population.Behavior, count int) error {
	for i := 0; i < count; i++ {
		n := sp.nextIndex(b)
		name := fmt.Sprintf("%s-%03d", b, n)
		vcfg, err := sp.tb.BandViewer(b, n, sp.cfg.Seed+1000+int64(n), sp.cfg.Segments)
		if err != nil {
			return err
		}
		vcfg.Pace = sp.cfg.Pace
		switch b {
		case population.BehaviorHonest:
			if sp.cfg.Live {
				vcfg.LiveEdgeSegments = 3
				vcfg.OnSegment = sp.onSegment
			}
		case population.BehaviorImpersonator:
			// The impersonator holds the victim's *public* key only; its
			// handshakes sign with its own private key, so every possession
			// proof fails — which is exactly what honest peers report.
			if sp.leakedKey != nil {
				vcfg.SecureImpersonate = sp.leakedKey()
			}
		}
		peer, err := pdnclient.New(vcfg)
		if err != nil {
			return err
		}
		vr := &ViewerResult{Name: name, Behavior: b, Peer: peer}
		sp.mu.Lock()
		sp.extra = append(sp.extra, vr)
		sp.mu.Unlock()
		wg := &sp.wg
		if b == population.BehaviorHonest || b == population.BehaviorFreeRider {
			wg = &sp.wgFull
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			vr.Stats, vr.Err = peer.Run(sp.ctx)
		}()
	}
	return nil
}
