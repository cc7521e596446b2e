// Command pdnanalyze runs the attack battery (§IV; Table V reports six of
// its risks) against one or all provider profiles: unauthenticated join,
// cross-domain and domain-spoofing peer authentication, direct and
// segment content pollution, IP leak, resource squatting, and the Sybil
// and free-rider populations. Its cells are docs/defense_matrix.md's.
//
// Usage:
//
//	pdnanalyze [-provider name] [-risk name]
//
// Without flags, the full battery runs against every profile.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"github.com/stealthy-peers/pdnsec"
)

func main() {
	os.Exit(run())
}

func run() int {
	providerName := flag.String("provider", "", "provider profile to test (default: all)")
	risk := flag.String("risk", "", "single risk to test (default: all): "+strings.Join(pdnsec.AllRisks(), ", "))
	timeout := flag.Duration("timeout", 10*time.Minute, "overall timeout")
	flag.Parse()

	ctx, cancel := context.WithTimeout(context.Background(), *timeout)
	defer cancel()

	profiles := pdnsec.AllProfiles()
	if *providerName != "" {
		var found bool
		for _, p := range profiles {
			if p.Name == *providerName {
				profiles = []pdnsec.Provider{p}
				found = true
				break
			}
		}
		if !found {
			fmt.Fprintf(os.Stderr, "unknown provider %q; available:", *providerName)
			for _, p := range pdnsec.AllProfiles() {
				fmt.Fprintf(os.Stderr, " %s", p.Name)
			}
			fmt.Fprintln(os.Stderr)
			return 2
		}
	}

	// The full battery is one matrix, its rows run concurrently; a single
	// risk is one cell per profile.
	var rows [][]pdnsec.Verdict
	if *risk == "" {
		m, err := pdnsec.AnalyzeMatrix(ctx, profiles)
		if err != nil {
			fmt.Fprintf(os.Stderr, "analyze: %v\n", err)
			return 1
		}
		rows = m
	} else {
		for _, p := range profiles {
			v, err := pdnsec.AnalyzeRisk(ctx, p, *risk)
			if err != nil {
				fmt.Fprintf(os.Stderr, "analyze %s: %v\n", p.Name, err)
				return 1
			}
			rows = append(rows, []pdnsec.Verdict{v})
		}
	}
	for i, row := range rows {
		fmt.Printf("=== %s ===\n", profiles[i].Name)
		for _, v := range row {
			fmt.Printf("  %-22s %-11s %s\n", v.Risk, strings.ToUpper(v.Status()), v.Detail)
		}
	}
	return 0
}
