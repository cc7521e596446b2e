package experiments

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"time"

	"github.com/stealthy-peers/pdnsec/internal/analyzer"
	"github.com/stealthy-peers/pdnsec/internal/defense"
	"github.com/stealthy-peers/pdnsec/internal/obs"
	"github.com/stealthy-peers/pdnsec/internal/pdnclient"
	"github.com/stealthy-peers/pdnsec/internal/provider"
	"github.com/stealthy-peers/pdnsec/internal/signal"
	"github.com/stealthy-peers/pdnsec/internal/traceview"
)

// TableVIRow is one control group of the IM-checking evaluation.
type TableVIRow struct {
	PDN        bool          `json:"pdn"`
	IMChecking bool          `json:"im_checking"`
	CPURatio   float64       `json:"cpu_ratio"` // vs the no-PDN group
	MemRatio   float64       `json:"mem_ratio"`
	Latency    time.Duration `json:"latency"` // mean P2P segment fetch, SIM fetch and verify included
	// SIMTrips is signaling round trips for integrity metadata per P2P
	// segment: the paper's design pays one each, a SIM window one per
	// window.
	SIMTrips float64 `json:"sim_trips_per_p2p_segment"`
}

// TableVIResult backs Table VI: the overhead of peer-assisted
// integrity checking.
type TableVIResult struct {
	Rows        []TableVIRow `json:"rows"`
	SegmentSize int          `json:"segment_size"`
}

// tableVISegments is how many segments each Table VI viewer plays: the
// first SlowStartSegments from the CDN, the rest from the seeders.
const tableVISegments = 10

// RunTableVI reproduces the paper's three control groups on running
// peers: a CDN-only viewer, a Peer5 swarm, and the same swarm with the
// §V-B peer-assisted IM panel deployed — the metered swarm Figure 4
// runs, with two seeders so the panel's two reporters exist before the
// leecher asks. The two swarms run on separate testbeds at once. CPU and
// memory are the leecher's meter against the control's; latency is the
// mean of the leecher's P2P segment spans on a 10 ms access link — the
// real fetch path, its first connects, the amortised SIM window fetch
// and the hash included (§V-B measures 3MB segments; the default here
// uses the same size).
func RunTableVI(ctx context.Context, segmentSize int) (*TableVIResult, error) {
	if segmentSize <= 0 {
		segmentSize = 3 << 20
	}
	res := &TableVIResult{SegmentSize: segmentSize}
	policies := []*signal.Policy{nil, analyzer.DefaultPolicyWithIM()}
	runs := make([]*swarmRun, len(policies))
	traces := make([]*obs.TraceSet, len(policies))
	errs := make([]error, len(policies))
	var wg sync.WaitGroup
	for i, policy := range policies {
		wg.Add(1)
		go func() {
			defer wg.Done()
			traces[i] = obs.NewTraceSet(nil, 1)
			tb, err := analyzer.NewTestbed(ctx, analyzer.TestbedConfig{
				Profile: provider.Peer5(),
				Video:   analyzer.SmallVideo("bbb", tableVISegments, segmentSize),
				Options: provider.Options{PolicyOverride: policy},
				Latency: 10 * time.Millisecond,
				Traces:  traces[i],
			})
			if err != nil {
				errs[i] = err
				return
			}
			defer tb.Close()
			runs[i], errs[i] = meteredSwarm(ctx, tb, 2)
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}

	res.Rows = []TableVIRow{{CPURatio: 1, MemRatio: 1}}
	base := runs[0].control
	for i, run := range runs {
		lat, p2p, err := p2pSegmentMean(traces[i], run.leecherProc)
		if err != nil {
			return nil, err
		}
		u := ratioed(run.leecher, base)
		res.Rows = append(res.Rows, TableVIRow{
			PDN:        true,
			IMChecking: policies[i] != nil,
			CPURatio:   u.CPURatio,
			MemRatio:   u.MemRatio,
			Latency:    lat,
			SIMTrips:   float64(run.simFetches) / float64(p2p),
		})
	}
	return res, nil
}

// p2pSegmentMean reads proc's segment spans back out of the trace set
// and returns the mean duration of those served from peers and their
// count.
func p2pSegmentMean(ts *obs.TraceSet, proc string) (time.Duration, int, error) {
	var buf bytes.Buffer
	if err := ts.WriteJSONL(&buf); err != nil {
		return 0, 0, err
	}
	recs, _, err := traceview.Parse(&buf)
	if err != nil {
		return 0, 0, err
	}
	var sum int64
	n := 0
	for _, r := range recs {
		if r.Proc == proc && r.Phase == "X" && r.Name == "segment" && r.Args["source"] == pdnclient.SourceP2P {
			sum += r.Dur
			n++
		}
	}
	if n == 0 {
		return 0, 0, fmt.Errorf("experiments: %s played no P2P segment", proc)
	}
	return time.Duration(sum/int64(n)) * time.Microsecond, n, nil
}

// Render prints Table VI's rows.
func (r *TableVIResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table VI: Evaluation for IM checking (%s segments)\n", humanCount(int64(r.SegmentSize)))
	fmt.Fprintf(&b, "%-6s %-12s %8s %8s %10s %14s\n", "PDN", "IM checking", "CPU", "Memory", "Latency", "SIM trips/seg")
	for _, row := range r.Rows {
		lat, trips := "-", "-"
		if row.PDN {
			lat = row.Latency.Round(time.Millisecond).String()
			trips = fmt.Sprintf("%.3f", row.SIMTrips)
		}
		fmt.Fprintf(&b, "%-6s %-12s %8.2f %8.2f %10s %14s\n", yn(row.PDN), yn(row.IMChecking), row.CPURatio, row.MemRatio, lat, trips)
	}
	return b.String()
}

func yn(v bool) string {
	if v {
		return "Yes"
	}
	return "No"
}

// TokenSizeResult backs the §V-A token-size claim.
type TokenSizeResult struct {
	JWT   string `json:"jwt"`
	Bytes int    `json:"bytes"`
}

// RunTokenSize signs the paper's Listing 1 token and reports its
// encoded size (the paper reports 283 bytes).
func RunTokenSize() (*TokenSizeResult, error) {
	jwt, err := defense.SignJWT(defense.ExampleToken(), []byte("pdn-provider-secret"))
	if err != nil {
		return nil, err
	}
	return &TokenSizeResult{JWT: jwt, Bytes: len(jwt)}, nil
}

// Render prints the token-size result.
func (r *TokenSizeResult) Render() string {
	return fmt.Sprintf("§V-A disposable video-binding token: encoded JWT is %d bytes (paper: 283)\n", r.Bytes)
}

// IMDefenseResult backs the §V-B end-to-end defense check.
type IMDefenseResult struct {
	PollutedWithoutDefense int `json:"polluted_without_defense"`
	PollutedWithDefense    int `json:"polluted_with_defense"`
	RejectedByIM           int `json:"rejected_by_im"`
}

// RunIMDefense runs the segment pollution attack against an undefended
// and a defended deployment.
func RunIMDefense(ctx context.Context) (*IMDefenseResult, error) {
	res := &IMDefenseResult{}
	undefended, err := analyzer.PollutionTest(ctx, provider.Peer5(), true, nil)
	if err != nil {
		return nil, err
	}
	defended, err := analyzer.PollutionTest(ctx, provider.Peer5(), true, analyzer.DefaultPolicyWithIM())
	if err != nil {
		return nil, err
	}
	if undefended.Vulnerable {
		res.PollutedWithoutDefense = 1
	}
	if defended.Vulnerable {
		res.PollutedWithDefense = 1
	}
	return res, nil
}

// Render prints the defense outcome.
func (r *IMDefenseResult) Render() string {
	return fmt.Sprintf("§V-B peer-assisted IM checking: pollution without defense = %v, with defense = %v\n",
		r.PollutedWithoutDefense == 1, r.PollutedWithDefense == 1)
}
