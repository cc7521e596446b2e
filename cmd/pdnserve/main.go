// Command pdnserve stands up a live PDN testbed — CDN, signaling
// server, STUN, and a swarm of viewer peers — and streams swarm and
// billing statistics while the peers watch. It is the quickest way to
// watch a PDN offload CDN traffic onto viewers.
//
// Usage:
//
//	pdnserve [-provider peer5] [-peers 4] [-segments 8] [-metrics 127.0.0.1:9100]
//
// With -metrics, the process serves live Prometheus metrics on
// /metrics, an expvar-style JSON dump on /debug/vars, and the standard
// pprof handlers under /debug/pprof/ for the run's duration.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"strings"
	"sync"
	"time"

	"github.com/stealthy-peers/pdnsec"
	"github.com/stealthy-peers/pdnsec/internal/analyzer"
	"github.com/stealthy-peers/pdnsec/internal/obs"
	"github.com/stealthy-peers/pdnsec/internal/pdnclient"
)

func main() {
	os.Exit(run())
}

// profileNames lists every built-in provider profile for usage errors.
func profileNames() string {
	names := make([]string, 0, len(pdnsec.AllProfiles()))
	for _, p := range pdnsec.AllProfiles() {
		names = append(names, p.Name)
	}
	return strings.Join(names, ", ")
}

func run() int {
	providerName := flag.String("provider", "peer5", "provider profile to deploy")
	peers := flag.Int("peers", 4, "number of viewer peers")
	segments := flag.Int("segments", 8, "segments per viewer")
	metricsAddr := flag.String("metrics", "", "serve /metrics, /debug/vars, and /debug/pprof on this address (e.g. 127.0.0.1:9100)")
	flag.Parse()

	var prof pdnsec.Provider
	found := false
	for _, p := range pdnsec.AllProfiles() {
		if p.Name == *providerName {
			prof, found = p, true
			break
		}
	}
	if !found {
		fmt.Fprintf(os.Stderr, "Usage: pdnserve [-provider NAME] [-peers N] [-segments N] [-metrics ADDR]\n")
		fmt.Fprintf(os.Stderr, "unknown provider %q (have: %s)\n", *providerName, profileNames())
		return 2
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()

	reg := obs.NewRegistry()

	var metricsSrv *http.Server
	var metricsWG sync.WaitGroup
	if *metricsAddr != "" {
		l, err := net.Listen("tcp", *metricsAddr)
		if err != nil {
			fmt.Fprintf(os.Stderr, "metrics listen: %v\n", err)
			return 1
		}
		metricsSrv = &http.Server{Handler: obs.DebugMux(reg)}
		metricsWG.Add(1)
		go func() {
			defer metricsWG.Done()
			_ = metricsSrv.Serve(l)
		}()
		defer func() {
			metricsSrv.Close()
			metricsWG.Wait()
		}()
		fmt.Printf("metrics: http://%s/metrics\n", l.Addr())
	}

	video := analyzer.SmallVideo("bbb", *segments, 256<<10)
	tb, err := pdnsec.NewTestbed(ctx, pdnsec.TestbedConfig{Profile: prof, Video: video, Obs: reg})
	if err != nil {
		fmt.Fprintf(os.Stderr, "deploy: %v\n", err)
		return 1
	}
	defer tb.Close()

	// Readiness for the -metrics /healthz endpoint: the signaling ring
	// must keep at least one live member, and the CDN origin must still
	// hold the asset it is serving.
	reg.RegisterHealth("signal_plane", func() error {
		if tb.Dep.Plane.Ring().Len() == 0 {
			return fmt.Errorf("signaling ring has no live members")
		}
		return nil
	})
	reg.RegisterHealth("cdn_origin", func() error {
		if _, err := video.SegmentData(video.Renditions[0].Name, 0); err != nil {
			return fmt.Errorf("origin lost its asset: %w", err)
		}
		return nil
	})

	if tb.Dep.Keys != nil {
		reg.GaugeFunc("customer_p2p_bytes", "P2P bytes metered to the customer", func() float64 {
			return float64(tb.Dep.Keys.Usage("customer.com").P2PBytes)
		})
		reg.GaugeFunc("customer_cdn_bytes", "CDN bytes metered to the customer", func() float64 {
			return float64(tb.Dep.Keys.Usage("customer.com").CDNBytes)
		})
	}

	fmt.Printf("deployed %s: signaling %v, stun %v, cdn %s\n",
		prof.Name, tb.Dep.SignalAddrs[0], tb.Dep.STUNAddr, tb.CDNBase)

	countries := []string{"US", "GB", "DE", "FR", "CA", "JP", "BR", "IN"}
	var wg sync.WaitGroup
	stats := make([]pdnclient.Stats, *peers)
	for i := 0; i < *peers; i++ {
		host, err := tb.NewViewerHost(countries[i%len(countries)])
		if err != nil {
			fmt.Fprintf(os.Stderr, "viewer host: %v\n", err)
			return 1
		}
		cfg := tb.ViewerConfig(host, int64(i+1))
		cfg.MaxSegments = *segments
		cfg.Linger = 10 * time.Second
		peer, err := pdnclient.New(cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "viewer: %v\n", err)
			return 1
		}
		wg.Add(1)
		go func(i int, peer *pdnclient.Peer) {
			defer wg.Done()
			st, err := peer.Run(ctx)
			if err != nil {
				fmt.Fprintf(os.Stderr, "peer %d: %v\n", i, err)
			}
			stats[i] = st
			peer.StopLinger()
		}(i, peer)
		// Stagger arrivals so later viewers find seeders.
		time.Sleep(150 * time.Millisecond)
	}
	wg.Wait()

	fmt.Printf("\n%-8s %-10s %-8s %-8s %-12s %-12s\n", "peer", "segments", "cdn", "p2p", "p2p-down-B", "p2p-up-B")
	var cdnTotal, p2pTotal int
	for i, st := range stats {
		fmt.Printf("p%-7d %-10d %-8d %-8d %-12d %-12d\n", i+1, st.SegmentsPlayed, st.FromCDN, st.FromP2P, st.P2PDownBytes, st.P2PUpBytes)
		cdnTotal += st.FromCDN
		p2pTotal += st.FromP2P
	}
	total := cdnTotal + p2pTotal
	if total > 0 {
		fmt.Printf("\nP2P offload: %d/%d segments (%.0f%%)\n", p2pTotal, total, float64(p2pTotal)/float64(total)*100)
	}
	fmt.Printf("CDN served %d bytes over %d requests\n", tb.CDN.BytesServed(""), tb.CDN.Requests(""))
	if tb.Dep.Keys != nil {
		u := tb.Dep.Keys.Usage("customer.com")
		fmt.Printf("customer metered: %d P2P bytes, %d CDN bytes, %d joins; bill $%.6f\n",
			u.P2PBytes, u.CDNBytes, u.Joins, tb.Dep.Keys.Cost("customer.com"))
	}
	return 0
}
