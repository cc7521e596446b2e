// Package swarmload is the signaling-plane load generator: it drives a
// real deployment (provider, signaling plane, CDN, netsim) with up to
// hundreds of thousands of peers — a thin "virtual peer" tier speaking
// the real signal.Client protocol for scale, plus a band of full
// pdnclient viewers for end-to-end realism — and asserts the
// invariants that make 100k-peer swarms safe to ship: bounded match
// latency, zero lost relay messages, and a sane CDN-fallback ratio.
//
// Config.Servers > 1 federates the plane: virtual peers bootstrap
// through rotated server seed lists exactly like production clients
// (internal/federation), follow redirects to their swarm's owner, and
// the same invariants must hold across the ring. Latency percentiles
// come from the deterministic striped sampler in sample.go, so memory
// stays O(sample size) no matter how large the population grows.
//
// The package is in the repo's deterministic set: it never reads the
// wall clock directly (the clock is injected via Config.Clock) and all
// randomness flows from Config.Seed, so a run is reproducible from its
// printed seed.
package swarmload

import (
	"context"
	"fmt"
	"math/rand"
	"net/netip"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"github.com/stealthy-peers/pdnsec/internal/analyzer"
	"github.com/stealthy-peers/pdnsec/internal/federation"
	"github.com/stealthy-peers/pdnsec/internal/obs"
	"github.com/stealthy-peers/pdnsec/internal/pdnclient"
	"github.com/stealthy-peers/pdnsec/internal/population"
	"github.com/stealthy-peers/pdnsec/internal/provider"
	"github.com/stealthy-peers/pdnsec/internal/signal"
)

// Config shapes one load run.
type Config struct {
	// Swarms is the number of load swarms (default 4).
	Swarms int
	// PeersPerSwarm is the virtual-peer population per load swarm
	// (default 250; the acceptance run uses 2500).
	PeersPerSwarm int
	// Seed drives everything random: server matching, arrival order,
	// churn selection, and viewer behavior.
	Seed int64
	// Shards stripes the signaling server (default 16).
	Shards int
	// Servers federates the signaling plane across this many servers
	// (default 1 — the classic single server, which runs through the
	// identical federation code path as an N=1 ring).
	Servers int
	// Sample bounds the kept latency observations per percentile
	// population (default 4096). Below the bound percentiles are exact;
	// above it they come from a deterministic seeded sample.
	Sample int
	// Churn is the fraction of virtual peers that leave between the ramp
	// and the measurement waves (default 0.2; negative means none).
	Churn float64
	// Rounds is how many relay waves each survivor sends along its
	// matches (default 2).
	Rounds int
	// FullViewers is how many complete pdnclient viewers play the
	// testbed video during the steady phase (default 4).
	FullViewers int
	// Segments is the VOD length the full viewers play (default 6).
	Segments int
	// Workers caps generator-side concurrency for joins and match waves
	// (default 64).
	Workers int
	// MatchP99Max is the match-latency invariant (default 750ms).
	MatchP99Max time.Duration
	// MaxFallbackRatio bounds pdn_cdn_fallbacks_total against all
	// P2P-eligible segment plays (default 0.75).
	MaxFallbackRatio float64
	// Adversaries mixes behavioral members into the full viewers' swarm
	// during the steady phase (population mix syntax, e.g.
	// "free_rider:6,sybil:24"). Free-riders and Sybil identities each
	// run their whole band from one shared host; eclipse colluders and
	// extra honest members get their own hosts. Empty means none — and
	// the adversarial invariants below are only scored when a mix is set.
	// Note that adversaries degrade the band's P2P efficiency by design;
	// adversarial runs usually pair this with a relaxed MaxFallbackRatio.
	Adversaries population.Mix
	// MinJainFairness floors Jain's index over the full-viewer band's
	// P2P upload bytes (default 0.05; scored only with Adversaries set).
	MinJainFairness float64
	// MaxSybilShare caps the share of match grants taken by the host
	// with the largest identity peak (default 0.5; scored only with
	// Adversaries set).
	MaxSybilShare float64
	// Obs receives every component's metrics; nil creates a private
	// registry (the report reads the signaling counters from it).
	Obs *obs.Registry
	// Traces, when set, gives every deployed process (signaling servers,
	// CDN, full viewers) its own process-stamped tracer so the merged
	// JSONL stitches in pdntrace. Virtual peers stay untraced — they are
	// the load, not the workload under observation.
	Traces *obs.TraceSet
	// Clock is the injectable wall clock (default time.Now). Latency
	// percentiles and wait deadlines derive from it.
	Clock func() time.Time
	// Logf, when set, receives phase-progress lines.
	Logf func(format string, args ...any)
}

func (cfg *Config) setDefaults() {
	if cfg.Swarms <= 0 {
		cfg.Swarms = 4
	}
	if cfg.PeersPerSwarm <= 0 {
		cfg.PeersPerSwarm = 250
	}
	if cfg.Shards <= 0 {
		cfg.Shards = 16
	}
	if cfg.Servers <= 0 {
		cfg.Servers = 1
	}
	if cfg.Sample <= 0 {
		cfg.Sample = defaultSampleSize
	}
	switch {
	case cfg.Churn == 0:
		cfg.Churn = 0.2
	case cfg.Churn < 0 || cfg.Churn >= 1:
		cfg.Churn = 0
	}
	if cfg.Rounds <= 0 {
		cfg.Rounds = 2
	}
	if cfg.FullViewers < 0 {
		cfg.FullViewers = 0
	} else if cfg.FullViewers == 0 {
		cfg.FullViewers = 4
	}
	if cfg.Segments <= 0 {
		cfg.Segments = 6
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 64
	}
	if cfg.MatchP99Max <= 0 {
		cfg.MatchP99Max = 750 * time.Millisecond
	}
	if cfg.MaxFallbackRatio <= 0 {
		cfg.MaxFallbackRatio = 0.75
	}
	if cfg.MinJainFairness <= 0 {
		cfg.MinJainFairness = 0.05
	}
	if cfg.MaxSybilShare <= 0 {
		cfg.MaxSybilShare = 0.5
	}
	if cfg.Obs == nil {
		cfg.Obs = obs.NewRegistry()
	}
	if cfg.Clock == nil {
		cfg.Clock = time.Now
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
}

// Report is the outcome of a run — the "swarmload" section of
// BENCH_swarm.json. Violations lists every invariant that failed; an
// empty list is a passing run.
type Report struct {
	Swarms        int   `json:"swarms"`
	PeersPerSwarm int   `json:"peers_per_swarm"`
	Seed          int64 `json:"seed"`
	Shards        int   `json:"shards"`
	Servers       int   `json:"servers"`

	VirtualPeers int `json:"virtual_peers"`
	Churned      int `json:"churned"`

	JoinP99Ms   float64 `json:"join_p99_ms"`
	MatchP50Ms  float64 `json:"match_p50_ms"`
	MatchP99Ms  float64 `json:"match_p99_ms"`
	JoinSample  int     `json:"join_sample"`
	MatchSample int     `json:"match_sample"`

	RelaysSent            int64 `json:"relays_sent"`
	RelaysReceived        int64 `json:"relays_received"`
	ServerRelaysAccepted  int64 `json:"server_relays_accepted"`
	ServerRelaysDelivered int64 `json:"server_relays_delivered"`
	ServerRelayDrops      int64 `json:"server_relay_drops"`

	ViewersDone      int     `json:"viewers_done"`
	ViewerSegments   int     `json:"viewer_segments_played"`
	CDNFallbackRatio float64 `json:"cdn_fallback_ratio"`

	// Adversarial-band outcome (populated only when Config.Adversaries
	// is set). JainFairness is Jain's index over the full-viewer band's
	// P2P upload bytes (participants only; the seeder is infrastructure
	// and excluded). SybilSlotShare is the share of all match grants the
	// host with the largest identity peak took.
	AdversaryCounts     map[string]int `json:"adversary_counts,omitempty"`
	JainFairness        float64        `json:"jain_fairness,omitempty"`
	SybilSlotShare      float64        `json:"sybil_slot_share,omitempty"`
	SybilPeakIdentities int            `json:"sybil_peak_identities,omitempty"`

	Violations []string `json:"violations,omitempty"`
}

// vpeer is one virtual peer: a real signal.Client on its own simulated
// host, with just enough state to account for every relay it receives.
type vpeer struct {
	c     *signal.Client
	id    string
	swarm int

	mu      sync.Mutex
	got     []string // "from>to#seq" delivery keys
	matches []string // latest match response (peer IDs)
}

func (v *vpeer) received() int {
	v.mu.Lock()
	defer v.mu.Unlock()
	return len(v.got)
}

// Run executes one load run: deploy, ramp the virtual-peer tier with
// seeded arrivals, churn a seeded fraction out, then — concurrently
// with the full viewers' playback — run a match-latency wave and the
// relay rounds, quiesce, and score the invariants. The returned error
// covers harness failures only; invariant failures land in
// Report.Violations.
func Run(ctx context.Context, cfg Config) (*Report, error) {
	cfg.setDefaults()
	clock := cfg.Clock
	rep := &Report{
		Swarms:        cfg.Swarms,
		PeersPerSwarm: cfg.PeersPerSwarm,
		Seed:          cfg.Seed,
		Shards:        cfg.Shards,
		Servers:       cfg.Servers,
	}

	tb, err := analyzer.NewTestbed(ctx, analyzer.TestbedConfig{
		Profile: provider.Peer5(),
		Video:   analyzer.SmallVideo("swarmload", cfg.Segments, 12<<10),
		Obs:     cfg.Obs,
		Traces:  cfg.Traces,
		Options: provider.Options{Seed: cfg.Seed, Shards: cfg.Shards, Servers: cfg.Servers},
	})
	if err != nil {
		return nil, fmt.Errorf("swarmload: deploy: %w", err)
	}
	defer tb.Close()

	// Ramp: the join storm. Arrival order is a seeded shuffle across the
	// whole population; Workers goroutines bootstrap concurrently, each
	// through a per-peer rotation of the plane's server list so every
	// federated entry point takes joins (and issues redirects) at once.
	total := cfg.Swarms * cfg.PeersPerSwarm
	rep.VirtualPeers = total
	rng := rand.New(rand.NewSource(cfg.Seed))
	order := rng.Perm(total)
	peers := make([]*vpeer, total)
	seeds := tb.Dep.SignalAddrs
	joins := newSampler(cfg.Seed, cfg.Sample)

	// settle waits out the full viewers (the honest band finishing is
	// what ends the adversaries' linger), then stops the adversaries and
	// the seeder. The passing run calls it before reading the settled
	// accounting; every return runs it and closes the virtual peers.
	var vwg, awg sync.WaitGroup
	advCtx, advCancel := context.WithCancel(ctx)
	var stopSeeder func() pdnclient.Stats
	var settleOnce sync.Once
	settle := func() {
		settleOnce.Do(func() {
			vwg.Wait()
			advCancel()
			awg.Wait()
			if stopSeeder != nil {
				stopSeeder()
			}
		})
	}
	defer func() {
		settle()
		closePeers(peers)
	}()
	cfg.Logf("swarmload: ramping %d virtual peers across %d swarms (servers=%d shards=%d)",
		total, cfg.Swarms, cfg.Servers, cfg.Shards)
	err = forEach(ctx, cfg.Workers, total, func(k int) error {
		i := order[k]
		swarm := i % cfg.Swarms
		host, err := tb.NewViewerHost(analyzer.ViewerCountry(i))
		if err != nil {
			return err
		}
		rot := make([]netip.AddrPort, len(seeds))
		for j := range seeds {
			rot[j] = seeds[(i+j)%len(seeds)]
		}
		store := federation.NewPeerstore(rot, clock)
		v := &vpeer{swarm: swarm}
		start := clock()
		res, err := federation.Join(ctx, host, store, signal.JoinRequest{
			APIKey:      tb.Key,
			Origin:      "https://customer.com",
			Video:       "load-" + strconv.Itoa(swarm),
			Rendition:   "720p",
			Fingerprint: "vfp" + strconv.Itoa(i),
		}, func(c *signal.Client) {
			c.OnRelay(func(rel signal.Relay) {
				v.mu.Lock()
				v.got = append(v.got, rel.From+">"+v.id+"#"+string(rel.Payload))
				v.mu.Unlock()
			})
		})
		if err != nil {
			return fmt.Errorf("join peer %d: %w", i, err)
		}
		joins.record(i, clock().Sub(start))
		v.mu.Lock()
		v.c, v.id = res.Client, res.Welcome.PeerID
		v.mu.Unlock()
		peers[i] = v
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("swarmload: ramp: %w", err)
	}
	rep.JoinP99Ms = joins.quantileMs(0.99)
	rep.JoinSample = len(joins.kept())

	// Churn: a seeded fraction leaves, then the server must converge on
	// the surviving population before anything is measured against it.
	churned := int(cfg.Churn * float64(total))
	rep.Churned = churned
	for _, i := range rng.Perm(total)[:churned] {
		peers[i].c.Close()
		peers[i] = nil
	}
	want := total - churned
	if err := waitUntil(ctx, clock, 30*time.Second, func() bool {
		// Plane-wide count: with Servers > 1 the survivors are spread
		// across the ring, so no single server's count converges to it.
		return tb.Dep.PeerCount() == want
	}); err != nil {
		return nil, fmt.Errorf("swarmload: churn never converged to %d peers: %w", want, err)
	}
	cfg.Logf("swarmload: churned %d peers, %d remain", churned, want)

	// Steady: full viewers play the testbed video in their own swarm
	// while the virtual tier runs its measurement waves. A lingering
	// seeder goes first so the band has a peer that actually holds the
	// segments — without one, a synchronized band is all at the same
	// playhead and every post-slow-start fetch is a CDN fallback.
	if cfg.FullViewers > 0 {
		host, err := tb.NewViewerHost(analyzer.ViewerCountry(0))
		if err != nil {
			return nil, fmt.Errorf("swarmload: seeder host: %w", err)
		}
		if _, stopSeeder, err = tb.Seeder(ctx, tb.ViewerConfig(host, cfg.Seed+1000), cfg.Segments); err != nil {
			return nil, fmt.Errorf("swarmload: seeder: %w", err)
		}
	}
	type viewerOut struct {
		stats pdnclient.Stats
		err   error
	}
	vouts := make([]viewerOut, cfg.FullViewers)
	for i := 0; i < cfg.FullViewers; i++ {
		host, err := tb.NewViewerHost(analyzer.ViewerCountry(i))
		if err != nil {
			return nil, fmt.Errorf("swarmload: viewer host: %w", err)
		}
		vcfg := tb.ViewerConfig(host, cfg.Seed+int64(i)+1)
		vcfg.MaxSegments = cfg.Segments
		vcfg.Pace = 2 * time.Millisecond
		vcfg.GracefulDegrade = true
		peer, err := pdnclient.New(vcfg)
		if err != nil {
			return nil, fmt.Errorf("swarmload: viewer %d: %w", i, err)
		}
		vwg.Add(1)
		go func(i int) {
			defer vwg.Done()
			vouts[i].stats, vouts[i].err = peer.Run(ctx)
		}(i)
	}

	// Adversarial band: behavioral members join the full viewers' swarm,
	// placed and configured by the testbed's band rule, and linger or
	// leech until the honest band finishes. Their stats feed the fairness
	// index, the plane's host ledger feeds the slot-share cap.
	advTotal := cfg.Adversaries.Total()
	aouts := make([]pdnclient.Stats, advTotal)
	if advTotal > 0 {
		rep.AdversaryCounts = make(map[string]int, len(cfg.Adversaries))
		for _, e := range cfg.Adversaries {
			rep.AdversaryCounts[string(e.Behavior)] += e.Count
		}
		cfg.Logf("swarmload: spawning adversarial band %s into the viewer swarm", cfg.Adversaries)
		for n, b := range cfg.Adversaries.Roster(cfg.Seed) {
			vcfg, err := tb.BandViewer(b, n, cfg.Seed+5000+int64(n), cfg.Segments)
			if err != nil {
				return nil, fmt.Errorf("swarmload: adversary %d (%s): %w", n, b, err)
			}
			vcfg.Pace = 2 * time.Millisecond
			peer, err := pdnclient.New(vcfg)
			if err != nil {
				return nil, fmt.Errorf("swarmload: adversary %d (%s): %w", n, b, err)
			}
			awg.Add(1)
			go func(n int) {
				defer awg.Done()
				aouts[n], _ = peer.Run(advCtx)
			}(n)
		}
	}

	// Match-latency wave: every survivor asks for neighbors; the response
	// also becomes its relay fan-out list.
	survivors := make([]*vpeer, 0, want)
	for _, v := range peers {
		if v != nil {
			survivors = append(survivors, v)
		}
	}
	matches := newSampler(cfg.Seed+1, cfg.Sample)
	err = forEach(ctx, cfg.Workers, len(survivors), func(k int) error {
		v := survivors[k]
		start := clock()
		infos, err := v.c.GetPeers(ctx, 8)
		if err != nil {
			return fmt.Errorf("match %s: %w", v.id, err)
		}
		matches.record(k, clock().Sub(start))
		ids := make([]string, len(infos))
		for j, in := range infos {
			ids[j] = in.ID
		}
		v.mu.Lock()
		v.matches = ids
		v.mu.Unlock()
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("swarmload: match wave: %w", err)
	}
	rep.MatchP50Ms = matches.quantileMs(0.50)
	rep.MatchP99Ms = matches.quantileMs(0.99)
	rep.MatchSample = len(matches.kept())
	cfg.Logf("swarmload: match wave done, p50=%.2fms p99=%.2fms", rep.MatchP50Ms, rep.MatchP99Ms)

	// Relay rounds: each survivor sends one uniquely-numbered frame to
	// each of its matches per round. Every target is a survivor (churn
	// completed before the wave), so every frame must arrive exactly
	// once.
	var seq atomic.Int64
	var sent atomic.Int64
	for round := 0; round < cfg.Rounds; round++ {
		err = forEach(ctx, cfg.Workers, len(survivors), func(k int) error {
			v := survivors[k]
			v.mu.Lock()
			targets := v.matches
			v.mu.Unlock()
			for _, to := range targets {
				if err := v.c.Relay(to, "swarmload", seq.Add(1)); err != nil {
					return fmt.Errorf("relay %s->%s: %w", v.id, to, err)
				}
				sent.Add(1)
			}
			return nil
		})
		if err != nil {
			return nil, fmt.Errorf("swarmload: relay round %d: %w", round, err)
		}
	}
	rep.RelaysSent = sent.Load()

	// Quiesce: wait for the delivery pipeline to drain our workload.
	quiesceErr := waitUntil(ctx, clock, 30*time.Second, func() bool {
		got := int64(0)
		for _, v := range survivors {
			got += int64(v.received())
		}
		return got >= rep.RelaysSent
	})
	got := int64(0)
	counts := make(map[string]int, rep.RelaysSent)
	for _, v := range survivors {
		v.mu.Lock()
		got += int64(len(v.got))
		for _, key := range v.got {
			counts[key]++
		}
		v.mu.Unlock()
	}
	rep.RelaysReceived = got
	if quiesceErr != nil && ctx.Err() != nil {
		return nil, fmt.Errorf("swarmload: relay quiesce: %w", ctx.Err())
	}

	// Wait out the viewers, then read the settled server-side accounting
	// (accepted relays must equal delivered + dropped once nothing is in
	// flight).
	settle()
	snapErr := waitUntil(ctx, clock, 10*time.Second, func() bool {
		acc := cfg.Obs.Counter("signal_relays_total", "").Value()
		del := cfg.Obs.Counter("signal_relays_delivered_total", "").Value()
		drop := cfg.Obs.Counter("signal_relay_drops_total", "").Value()
		return acc == del+drop
	})
	rep.ServerRelaysAccepted = cfg.Obs.Counter("signal_relays_total", "").Value()
	rep.ServerRelaysDelivered = cfg.Obs.Counter("signal_relays_delivered_total", "").Value()
	rep.ServerRelayDrops = cfg.Obs.Counter("signal_relay_drops_total", "").Value()

	// Score the invariants.
	if rep.MatchP99Ms > float64(cfg.MatchP99Max)/float64(time.Millisecond) {
		rep.Violations = append(rep.Violations,
			fmt.Sprintf("match p99 %.2fms exceeds budget %v", rep.MatchP99Ms, cfg.MatchP99Max))
	}
	if rep.RelaysReceived != rep.RelaysSent {
		rep.Violations = append(rep.Violations,
			fmt.Sprintf("relay loss: sent %d, received %d", rep.RelaysSent, rep.RelaysReceived))
	}
	if int64(len(counts)) != rep.RelaysSent {
		rep.Violations = append(rep.Violations,
			fmt.Sprintf("relay duplication: %d distinct frames for %d sent", len(counts), rep.RelaysSent))
	}
	if snapErr != nil {
		rep.Violations = append(rep.Violations,
			fmt.Sprintf("relay accounting never settled: accepted %d != delivered %d + dropped %d",
				rep.ServerRelaysAccepted, rep.ServerRelaysDelivered, rep.ServerRelayDrops))
	}
	for i, vo := range vouts {
		switch {
		case vo.err != nil:
			rep.Violations = append(rep.Violations, fmt.Sprintf("viewer %d failed: %v", i, vo.err))
		case vo.stats.SegmentsPlayed < cfg.Segments:
			rep.Violations = append(rep.Violations,
				fmt.Sprintf("viewer %d played %d/%d segments", i, vo.stats.SegmentsPlayed, cfg.Segments))
		default:
			rep.ViewersDone++
		}
		rep.ViewerSegments += vo.stats.SegmentsPlayed
	}
	p2p := cfg.Obs.Counter("pdn_segments_p2p_total", "").Value()
	fallbacks := cfg.Obs.Counter("pdn_cdn_fallbacks_total", "").Value()
	if p2p+fallbacks > 0 {
		rep.CDNFallbackRatio = float64(fallbacks) / float64(p2p+fallbacks)
	}
	if rep.CDNFallbackRatio > cfg.MaxFallbackRatio {
		rep.Violations = append(rep.Violations,
			fmt.Sprintf("CDN fallback ratio %.2f exceeds %.2f", rep.CDNFallbackRatio, cfg.MaxFallbackRatio))
	}
	if advTotal > 0 {
		band := make([]pdnclient.Stats, 0, len(vouts)+len(aouts))
		for _, vo := range vouts {
			band = append(band, vo.stats)
		}
		band = append(band, aouts...)
		rep.JainFairness = analyzer.UploadFairness(band)
		rep.SybilSlotShare, rep.SybilPeakIdentities = signal.MaxHostShare(tb.HostStats())
		cfg.Obs.GaugeFunc("swarmload_jain_fairness",
			"Jain upload-fairness index over the full-viewer band's P2P participants",
			func() float64 { return rep.JainFairness })
		cfg.Obs.GaugeFunc("swarmload_sybil_slot_share",
			"share of match grants taken by the host with the largest identity peak",
			func() float64 { return rep.SybilSlotShare })
		if rep.JainFairness < cfg.MinJainFairness {
			rep.Violations = append(rep.Violations,
				fmt.Sprintf("jain fairness %.3f below floor %.3f (free-riding)", rep.JainFairness, cfg.MinJainFairness))
		}
		if rep.SybilSlotShare > cfg.MaxSybilShare {
			rep.Violations = append(rep.Violations,
				fmt.Sprintf("host with identity peak %d took %.0f%% of match grants, cap %.0f%% (sybil)",
					rep.SybilPeakIdentities, rep.SybilSlotShare*100, cfg.MaxSybilShare*100))
		}
	}
	return rep, nil
}

// closePeers closes every still-open virtual peer.
func closePeers(peers []*vpeer) {
	for _, v := range peers {
		if v != nil {
			v.c.Close()
		}
	}
}

// forEach runs fn(0..n-1) over a bounded worker pool, stopping at the
// first error or context cancellation.
func forEach(ctx context.Context, workers, n int, fn func(i int) error) error {
	if workers > n {
		workers = n
	}
	idx := make(chan int)
	var wg sync.WaitGroup
	var firstErr error
	var errMu sync.Mutex
	fail := func(err error) {
		errMu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		errMu.Unlock()
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Workers drain the feed even after a failure (skipping the
			// work) so the feeder can never block on a dead pool.
			for i := range idx {
				errMu.Lock()
				failed := firstErr != nil
				errMu.Unlock()
				if failed {
					continue
				}
				if err := fn(i); err != nil {
					fail(err)
				}
			}
		}()
	}
feed:
	for i := 0; i < n; i++ {
		errMu.Lock()
		failed := firstErr != nil
		errMu.Unlock()
		if failed {
			break
		}
		select {
		case idx <- i:
		case <-ctx.Done():
			fail(ctx.Err())
			break feed
		}
	}
	close(idx)
	wg.Wait()
	return firstErr
}

// waitUntil polls cond (5ms cadence on the injected clock's timeline)
// until it holds, the deadline passes, or ctx is cancelled.
func waitUntil(ctx context.Context, clock func() time.Time, d time.Duration, cond func() bool) error {
	deadline := clock().Add(d)
	for {
		if cond() {
			return nil
		}
		if clock().After(deadline) {
			return fmt.Errorf("condition not met within %v", d)
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(5 * time.Millisecond):
		}
	}
}
