// Quickstart: deploy a PDN (provider + CDN + video) on a simulated
// network, stream through two viewers, and watch the second viewer pull
// most of its segments from the first over the peer-to-peer path.
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"os"

	"github.com/stealthy-peers/pdnsec"
	"github.com/stealthy-peers/pdnsec/internal/analyzer"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintf(os.Stderr, "quickstart: %v\n", err)
		os.Exit(1)
	}
}

func run() error {
	ctx := context.Background()
	// 1. Deploy a Peer5-like provider with an 8-segment VOD asset.
	video := analyzer.SmallVideo("big-buck-bunny", 8, 128<<10)
	tb, err := pdnsec.NewTestbed(ctx, pdnsec.TestbedConfig{
		Profile: pdnsec.Peer5(),
		Video:   video,
	})
	if err != nil {
		return err
	}
	defer tb.Close()
	fmt.Printf("PDN deployed: signaling=%v stun=%v cdn=%s\n",
		tb.Dep.SignalAddrs[0], tb.Dep.STUNAddr, tb.CDNBase)

	// 2. Alice watches first; everything comes from the CDN. She keeps
	// the tab open until she is stopped, so she can serve later viewers.
	aliceHost, err := tb.NewViewerHost("US")
	if err != nil {
		return err
	}
	aliceCfg := tb.ViewerConfig(aliceHost, 1)
	alice, stopAlice, err := tb.Seeder(ctx, aliceCfg, video.Segments)
	if err != nil {
		return err
	}
	fmt.Printf("alice (%v) finished: %+v\n", aliceHost.Addr(), alice.Stats())

	// 3. Bob arrives later from another country. After the slow-start
	// segments, the PDN matches him with Alice and his downloads shift
	// to the P2P path.
	bobHost, err := tb.NewViewerHost("GB")
	if err != nil {
		return err
	}
	bobCfg := tb.ViewerConfig(bobHost, 2)
	bobStats, err := tb.RunViewer(ctx, bobCfg)
	if err != nil {
		return err
	}
	aliceStats := stopAlice()

	fmt.Printf("bob   (%v) finished: %+v\n", bobHost.Addr(), bobStats)
	fmt.Printf("\nbob's segments: %d from CDN (slow start), %d over P2P\n",
		bobStats.FromCDN, bobStats.FromP2P)
	fmt.Printf("alice uploaded %d bytes to bob — her bandwidth, the customer's savings\n",
		aliceStats.P2PUpBytes)
	fmt.Printf("CDN served %d bytes total; without the PDN it would have served %d\n",
		tb.CDN.BytesServed(""), tb.CDN.BytesServed("")+bobStats.P2PDownBytes)
	return nil
}
