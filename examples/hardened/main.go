// Hardened: deploy a PDN with every §V mitigation composed — disposable
// video-binding JWTs (§V-A), peer-assisted integrity checking (§V-B),
// geo-constrained matching and an upload budget (§V-C) — then replay the
// paper's attacks against it and watch each one fail while honest
// viewers stream normally.
//
//	go run ./examples/hardened
package main

import (
	"context"
	"fmt"
	"os"
	"time"

	"github.com/stealthy-peers/pdnsec"
	"github.com/stealthy-peers/pdnsec/internal/analyzer"
	"github.com/stealthy-peers/pdnsec/internal/attack"
	"github.com/stealthy-peers/pdnsec/internal/media"
	"github.com/stealthy-peers/pdnsec/internal/mitm"
	"github.com/stealthy-peers/pdnsec/internal/provider"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintf(os.Stderr, "hardened: %v\n", err)
		os.Exit(1)
	}
}

func run() error {
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Minute)
	defer cancel()

	video := analyzer.SmallVideo("premium-stream", 6, 64<<10)
	tb, err := pdnsec.NewTestbed(ctx, pdnsec.TestbedConfig{
		Profile: provider.Hardened(),
		Video:   video,
		Options: provider.Options{Seed: 7},
	})
	if err != nil {
		return err
	}
	defer tb.Close()
	fmt.Println("deployed hardened PDN: JWT auth + IM checking + geo matching + upload budget")

	// 1. Honest streaming still works: two US viewers share P2P.
	hostA, err := tb.NewViewerHost("US")
	if err != nil {
		return err
	}
	_, stopA, err := tb.Seeder(ctx, tb.ViewerConfig(hostA, 1), video.Segments)
	if err != nil {
		return err
	}
	hostB, err := tb.NewViewerHost("US")
	if err != nil {
		return err
	}
	stB, err := tb.RunViewer(ctx, tb.ViewerConfig(hostB, 2))
	if err != nil {
		return err
	}
	fmt.Printf("honest viewer B: %d segments (%d P2P, %d CDN) — the first pair pays the\n",
		stB.SegmentsPlayed, stB.FromP2P, stB.FromCDN)
	fmt.Println("  IM bootstrap (unverifiable P2P segments fall back to CDN, which files reports)")

	// With SIMs now established by A and B's reports, a third viewer
	// verifies P2P segments immediately.
	hostC, err := tb.NewViewerHost("US")
	if err != nil {
		return err
	}
	stC, err := tb.RunViewer(ctx, tb.ViewerConfig(hostC, 3))
	if err != nil {
		return err
	}
	stopA()
	fmt.Printf("honest viewer C: %d segments (%d P2P, %d CDN) — verified P2P once SIMs exist\n",
		stC.SegmentsPlayed, stC.FromP2P, stC.FromCDN)

	// 2. Free riding: a stolen viewer JWT is useless for the attacker's
	// own stream (video binding) and dies quickly anyway (TTL + usage
	// limit).
	atkHost, err := tb.NewViewerHost("US")
	if err != nil {
		return err
	}
	ok, err := attack.CrossDomain(ctx, tb.StolenConfig(atkHost, 8))
	if err != nil {
		return err
	}
	fmt.Printf("free riding with a stolen JWT: accepted=%v (video binding rejects it)\n", ok)

	// 3. Segment pollution: the fake-CDN attack launches, but victims
	// verify SIMs and fall back to the CDN.
	fakeHost, err := tb.Net.NewHost(analyzer.FakeCDNIP())
	if err != nil {
		return err
	}
	malHost, err := tb.NewViewerHost("US")
	if err != nil {
		return err
	}
	mal := tb.ViewerConfig(malHost, 666)
	mal.MaxSegments = video.Segments
	atk, err := attack.LaunchPollution(ctx, mal, fakeHost, mitm.SameSizePollution([]int{3, 4}))
	if err != nil {
		return err
	}
	defer atk.Close()

	victimHost, err := tb.NewViewerHost("US")
	if err != nil {
		return err
	}
	vcfg := tb.ViewerConfig(victimHost, 9)
	polluted := 0
	vcfg.OnSegment = func(key media.SegmentKey, data []byte, source string) {
		if !video.Verify(key.Rendition, key.Index, data) {
			polluted++
		}
	}
	stV, err := tb.RunViewer(ctx, vcfg)
	if err != nil {
		return err
	}
	conflicts, fetches, banned := tb.IM.Stats()
	fmt.Printf("pollution attack: victim played %d polluted segments (%d rejected by IM checks)\n",
		polluted, stV.IMRejected)
	fmt.Printf("IM checker: %d conflicts arbitrated via %d CDN fetches, %d peers blacklisted\n",
		conflicts, fetches, banned)

	if !ok && polluted == 0 {
		fmt.Println("\nresult: every attack from the paper fails against the hardened deployment")
	}
	return nil
}
