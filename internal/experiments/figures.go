package experiments

import (
	"context"
	"fmt"
	"strings"

	"github.com/stealthy-peers/pdnsec/internal/analyzer"
	"github.com/stealthy-peers/pdnsec/internal/monitor"
	"github.com/stealthy-peers/pdnsec/internal/provider"
)

// RoleUsage is one peer's resource summary in a figure experiment.
type RoleUsage struct {
	Role      string  `json:"role"`
	CPUUnits  float64 `json:"cpu_units"`
	MemBytes  int64   `json:"mem_bytes"`
	UpBytes   int64   `json:"up_bytes"`
	DownBytes int64   `json:"down_bytes"`
	CPURatio  float64 `json:"cpu_ratio"` // vs the no-peer control
	MemRatio  float64 `json:"mem_ratio"`
}

// Figure4Result backs Fig. 4: resource consumption of serving as a PDN
// peer, against a no-peer control.
type Figure4Result struct {
	NoPeer RoleUsage `json:"no_peer"`
	PeerA  RoleUsage `json:"peer_a"`
	PeerB  RoleUsage `json:"peer_b"`
}

// RunFigure4 plays the same stream three ways: a plain CDN viewer
// (control), a seeding PDN peer (A), and a later PDN peer (B) that
// leeches from A, each with a resource meter attached.
func RunFigure4(ctx context.Context) (*Figure4Result, error) {
	// 1 MiB segments: large enough that the segment cache and crypto
	// work dominate the overhead the way they do in a real player.
	video := analyzer.SmallVideo("bbb", 8, 1<<20)
	tb, err := analyzer.NewTestbed(ctx, analyzer.TestbedConfig{Profile: provider.Peer5(), Video: video})
	if err != nil {
		return nil, err
	}
	defer tb.Close()
	sw, err := tb.MeteredSwarm(ctx, 1)
	if err != nil {
		return nil, err
	}
	control := usageOf("no-peer", sw.Control)
	res := &Figure4Result{
		NoPeer: control,
		PeerA:  ratioed(usageOf("peer-a", sw.Seeders[0]), control),
		PeerB:  ratioed(usageOf("peer-b", sw.Leecher), control),
	}
	res.NoPeer.CPURatio, res.NoPeer.MemRatio = 1, 1
	return res, nil
}

func usageOf(role string, u monitor.Usage) RoleUsage {
	return RoleUsage{
		Role:      role,
		CPUUnits:  u.CPUUnits,
		MemBytes:  u.MemBytes,
		UpBytes:   u.UpBytes,
		DownBytes: u.DownBytes,
	}
}

func ratioed(u, base RoleUsage) RoleUsage {
	if base.CPUUnits > 0 {
		u.CPURatio = u.CPUUnits / base.CPUUnits
	}
	if base.MemBytes > 0 {
		u.MemRatio = float64(u.MemBytes) / float64(base.MemBytes)
	}
	return u
}

// Render prints Fig. 4's series as a summary table.
func (r *Figure4Result) Render() string {
	var b strings.Builder
	b.WriteString("Figure 4: Resource consumption of serving as a PDN peer\n")
	fmt.Fprintf(&b, "%-10s %12s %10s %12s %12s %8s %8s\n",
		"role", "cpu-units", "mem", "down", "up", "cpu-x", "mem-x")
	for _, u := range []RoleUsage{r.NoPeer, r.PeerA, r.PeerB} {
		fmt.Fprintf(&b, "%-10s %12.0f %10s %12d %12d %8.2f %8.2f\n",
			u.Role, u.CPUUnits, humanCount(u.MemBytes), u.DownBytes, u.UpBytes, u.CPURatio, u.MemRatio)
	}
	return b.String()
}

// Figure5Point is one neighbor-count datapoint.
type Figure5Point struct {
	Neighbors       int     `json:"neighbors"`
	SeederUpBytes   int64   `json:"seeder_up_bytes"`
	SeederDownBytes int64   `json:"seeder_down_bytes"`
	UploadRatio     float64 `json:"upload_ratio"` // upload / download
	CPUUnits        float64 `json:"cpu_units"`
	MemBytes        int64   `json:"mem_bytes"`
}

// Figure5Result backs Fig. 5: bandwidth consumption of serving
// multiple peers.
type Figure5Result struct {
	Points []Figure5Point `json:"points"`
}

// RunFigure5 measures the seeding peer's upload as 1..maxPeers leeches
// consume the stream from it sequentially (each leech arrives after the
// previous finished, so the seeder is the only P2P source).
func RunFigure5(ctx context.Context, maxPeers int) (*Figure5Result, error) {
	if maxPeers <= 0 {
		maxPeers = 3
	}
	res := &Figure5Result{}
	for k := 1; k <= maxPeers; k++ {
		video := analyzer.SmallVideo("bbb", 6, 64<<10)
		tb, err := analyzer.NewTestbed(ctx, analyzer.TestbedConfig{Profile: provider.Peer5(), Video: video})
		if err != nil {
			return nil, err
		}
		hostA, err := tb.NewViewerHost("US")
		if err != nil {
			tb.Close()
			return nil, err
		}
		cfgA := tb.ViewerConfig(hostA, 1)
		meterA := analyzer.MeterFor(&cfgA, hostA)
		_, stopA, err := tb.Seeder(ctx, cfgA, video.Segments)
		if err != nil {
			tb.Close()
			return nil, err
		}
		for i := 0; i < k; i++ {
			hostB, err := tb.NewViewerHost("GB")
			if err != nil {
				tb.Close()
				return nil, err
			}
			cfgB := tb.ViewerConfig(hostB, int64(10+i))
			if _, err := tb.RunViewer(ctx, cfgB); err != nil {
				tb.Close()
				return nil, err
			}
		}
		stopA()
		u := meterA.Snapshot()
		pt := Figure5Point{
			Neighbors:       k,
			SeederUpBytes:   u.UpBytes,
			SeederDownBytes: u.DownBytes,
			CPUUnits:        u.CPUUnits,
			MemBytes:        u.MemBytes,
		}
		if u.DownBytes > 0 {
			pt.UploadRatio = float64(u.UpBytes) / float64(u.DownBytes)
		}
		res.Points = append(res.Points, pt)
		tb.Close()
	}
	return res, nil
}

// Render prints Fig. 5's series.
func (r *Figure5Result) Render() string {
	var b strings.Builder
	b.WriteString("Figure 5: Bandwidth consumption of serving multiple peers\n")
	fmt.Fprintf(&b, "%-10s %14s %14s %10s %12s %10s\n", "neighbors", "seeder-up", "seeder-down", "up/down", "cpu-units", "mem")
	for _, p := range r.Points {
		fmt.Fprintf(&b, "%-10d %14d %14d %10.2f %12.0f %10s\n",
			p.Neighbors, p.SeederUpBytes, p.SeederDownBytes, p.UploadRatio, p.CPUUnits, humanCount(p.MemBytes))
	}
	return b.String()
}
