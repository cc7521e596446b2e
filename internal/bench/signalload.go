package bench

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"time"

	"github.com/stealthy-peers/pdnsec/internal/obs"
	"github.com/stealthy-peers/pdnsec/internal/swarmload"
)

// rampMarker is the word in swarmload's first progress line ("swarmload:
// ramping N virtual peers ..."), which it logs right after its
// deployment is up. swarmload.Report carries no deployed timestamp, so
// that line is where RunSignal ends setup_s and starts run_s;
// TestSignalSetupBoundary pins the coupling.
const rampMarker = "ramping"

// SignalRun is the raw outcome of one signaling-plane repetition.
type SignalRun struct {
	SetupS float64 // deploy only: the join ramp is part of the workload
	RunS   float64

	Joins          int
	MatchRequests  int
	RelaysSent     int64
	RelaysReceived int64
	MatchP50Ms     float64
	MatchSamples   int
	Violations     []string
}

// Ops is the signaling work completed: joins + match requests + relays
// delivered.
func (r *SignalRun) Ops() int64 {
	return int64(r.Joins) + int64(r.MatchRequests) + r.RelaysReceived
}

// Attempted counts the operations the run set out to complete.
func (r *SignalRun) Attempted() int64 {
	return int64(r.Joins) + int64(r.MatchRequests) + r.RelaysSent
}

// Failed counts relays lost plus every other invariant swarmload scored
// as violated.
func (r *SignalRun) Failed() int64 {
	lost := r.RelaysSent - r.RelaysReceived
	if lost < 0 {
		lost = -lost
	}
	return lost + int64(len(r.Violations))
}

// RunSignal executes one repetition of a signaling-plane workload. The
// wave logic (seeded ramp → churn → one GetPeers per survivor → relay
// rounds → quiesce) is internal/swarmload's, driven here by viewerSlots
// generator workers and no full viewers; the match percentile is exact
// because the sample bound exceeds the population.
func RunSignal(ctx context.Context, w Workload, size Size, seed int64, ins *Instruments) (*SignalRun, error) {
	if w.Signal == nil {
		return nil, fmt.Errorf("bench: %s is not a signaling workload", w.Name)
	}
	sh := *w.Signal
	if size.PeersPerSwarm > 0 {
		sh.PeersPerSwarm = size.PeersPerSwarm
	}
	cfg := swarmload.Config{
		Swarms:        sh.Swarms,
		PeersPerSwarm: sh.PeersPerSwarm,
		Seed:          seed,
		Shards:        sh.Shards,
		Servers:       sh.Servers,
		Sample:        sh.Swarms*sh.PeersPerSwarm + 1,
		Churn:         sh.Churn,
		Rounds:        sh.RelayRounds,
		FullViewers:   -1,
		Workers:       viewerSlots,
		MatchP99Max:   time.Minute, // a budget is the regression gate's business, not the generator's
	}
	if ins != nil {
		cfg.Obs, cfg.Traces = ins.Obs, ins.Traces
	} else {
		// swarmload reads its relay accounting from a registry, so the
		// signaling workload cannot run with Obs nil; the counters are a
		// handful of atomic adds per message.
		cfg.Obs = obs.NewRegistry()
	}
	// swarmload deploys inside Run; set-up ends at its rampMarker line.
	start := time.Now()
	var once sync.Once
	var deployed time.Time
	cfg.Logf = func(format string, _ ...any) {
		if strings.Contains(format, rampMarker) {
			once.Do(func() { deployed = time.Now() })
		}
	}
	rep, err := swarmload.Run(ctx, cfg)
	end := time.Now()
	if err != nil {
		return nil, fmt.Errorf("bench: %s: %w", w.Name, err)
	}
	if deployed.IsZero() {
		return nil, fmt.Errorf("bench: %s: swarmload never reported its ramp", w.Name)
	}
	return &SignalRun{
		SetupS:         deployed.Sub(start).Seconds(),
		RunS:           end.Sub(deployed).Seconds(),
		Joins:          rep.VirtualPeers,
		MatchRequests:  rep.VirtualPeers - rep.Churned,
		RelaysSent:     rep.RelaysSent,
		RelaysReceived: rep.RelaysReceived,
		MatchP50Ms:     rep.MatchP50Ms,
		MatchSamples:   rep.MatchSample,
		Violations:     rep.Violations,
	}, nil
}
