// Pollution: run the paper's §IV-C video segment pollution attack end
// to end — a fake CDN feeds an unwitting malicious peer same-size
// polluted segments, the PDN spreads them to an honest victim — then
// repeat with the §V-B peer-assisted integrity-checking defense enabled
// and watch the pollution die.
//
//	go run ./examples/pollution
package main

import (
	"context"
	"fmt"
	"os"
	"time"

	"github.com/stealthy-peers/pdnsec"
	"github.com/stealthy-peers/pdnsec/internal/analyzer"
	"github.com/stealthy-peers/pdnsec/internal/attack"
	"github.com/stealthy-peers/pdnsec/internal/mitm"
	"github.com/stealthy-peers/pdnsec/internal/provider"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintf(os.Stderr, "pollution: %v\n", err)
		os.Exit(1)
	}
}

func run() error {
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Minute)
	defer cancel()

	fmt.Println("--- round 1: undefended PDN ---")
	polluted, err := round(ctx, false)
	if err != nil {
		return err
	}
	fmt.Printf("victim played %d polluted segments\n\n", polluted)

	fmt.Println("--- round 2: peer-assisted IM checking enabled ---")
	pollutedDefended, err := round(ctx, true)
	if err != nil {
		return err
	}
	fmt.Printf("victim played %d polluted segments\n\n", pollutedDefended)

	if polluted > 0 && pollutedDefended == 0 {
		fmt.Println("result: the attack works against the deployed design and is stopped by the defense")
	}
	return nil
}

func round(ctx context.Context, defended bool) (int, error) {
	video := analyzer.SmallVideo("bbb", 6, 64<<10)

	opts := provider.Options{Seed: 7}
	if defended {
		// The testbed deploys the §V-B checker a policy like this requires.
		opts.PolicyOverride = analyzer.DefaultPolicyWithIM()
	}
	tb, err := pdnsec.NewTestbed(ctx, pdnsec.TestbedConfig{
		Profile: pdnsec.Peer5(),
		Video:   video,
		Options: opts,
	})
	if err != nil {
		return 0, err
	}
	defer tb.Close()

	// The attacker: a fake CDN shadowing the real one, polluting
	// segments 3 and 4 with same-size substitutes, and a malicious peer
	// configured to stream through it.
	fakeHost, err := tb.Net.NewHost(analyzer.FakeCDNIP())
	if err != nil {
		return 0, err
	}
	malHost, err := tb.NewViewerHost("US")
	if err != nil {
		return 0, err
	}
	mal := tb.ViewerConfig(malHost, 666)
	mal.MaxSegments = video.Segments
	atk, err := attack.LaunchPollution(ctx, mal, fakeHost, mitm.SameSizePollution([]int{3, 4}))
	if err != nil {
		return 0, err
	}
	defer atk.Close()
	fmt.Printf("fake CDN substituted %d segments; malicious peer seeded the swarm\n", atk.FakeCDN.Substitutions())

	// The victim: an ordinary viewer.
	victimHost, err := tb.NewViewerHost("GB")
	if err != nil {
		return 0, err
	}
	cfg := tb.ViewerConfig(victimHost, 99)
	cfg.MaxSegments = video.Segments
	obs, err := attack.RunVictim(ctx, cfg, video)
	if err != nil {
		return 0, err
	}
	fmt.Printf("victim: %d segments played, %d over P2P, %d rejected by IM checks\n",
		obs.PlayedSegments, obs.P2PSegments, obs.Stats.IMRejected)
	for _, k := range obs.PollutedSegments {
		fmt.Printf("  POLLUTED segment %s reached the victim's player\n", k)
	}
	return len(obs.PollutedSegments), nil
}
