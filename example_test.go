package pdnsec_test

import (
	"context"
	"fmt"
	"time"

	"github.com/stealthy-peers/pdnsec"
)

// ExampleAnalyzeMatrix runs the attack battery against a deployed
// public service (Peer5) and the profile that composes every §V
// defense, and prints the cells of the paper's headline attacks: §IV-B
// key theft (cross-domain) and origin spoofing (domain-spoofing), §IV-C
// segment pollution and §IV-D address harvesting (ip-leak). Each status
// is the cell of docs/defense_matrix.md. The population cells
// (sybil-flood, free-rider-wave) are left out: their verdicts depend on
// scheduling under a loaded race-detector run.
func ExampleAnalyzeMatrix() {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	profiles := []pdnsec.Provider{pdnsec.Peer5(), pdnsec.Hardened()}
	m, err := pdnsec.AnalyzeMatrix(ctx, profiles)
	if err != nil {
		fmt.Println(err)
		return
	}
	shown := map[string]bool{"cross-domain": true, "domain-spoofing": true, "segment-pollution": true, "ip-leak": true}
	for i, row := range m {
		for _, v := range row {
			if shown[v.Risk] {
				fmt.Printf("%s %s %s\n", profiles[i].Name, v.Risk, v.Status())
			}
		}
	}
	// Output:
	// peer5 cross-domain vulnerable
	// peer5 domain-spoofing vulnerable
	// peer5 segment-pollution vulnerable
	// peer5 ip-leak vulnerable
	// hardened cross-domain safe
	// hardened domain-spoofing n/a
	// hardened segment-pollution safe
	// hardened ip-leak safe
}
