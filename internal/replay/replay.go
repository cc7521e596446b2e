// Package replay is the attack-replay harness: it re-runs every attack
// the reproduction implements (package attack, plus the chaos
// adversarial populations) against every provider profile and folds
// the outcomes into the before/after defense matrix committed at
// docs/defense_matrix.md. It sits above analyzer, attack, and chaos —
// none of which may import each other freely — which is why the
// harness is its own package.
package replay

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"time"

	"github.com/stealthy-peers/pdnsec/internal/analyzer"
	"github.com/stealthy-peers/pdnsec/internal/attack"
	"github.com/stealthy-peers/pdnsec/internal/chaos"
	"github.com/stealthy-peers/pdnsec/internal/mitm"
	"github.com/stealthy-peers/pdnsec/internal/netsim"
	"github.com/stealthy-peers/pdnsec/internal/pdnclient"
	"github.com/stealthy-peers/pdnsec/internal/population"
	"github.com/stealthy-peers/pdnsec/internal/provider"
)

// "Before" is the deployed profiles the paper measured (the attacks
// succeed for the paper's reasons); "after" is the hardened and secure
// profiles (the same attack binaries fail).

// The matrix's attack columns, in table order.
const (
	AttackJoinProbe     = "join_probe"
	AttackCrossDomain   = "cross_domain"
	AttackDomainSpoof   = "domain_spoof"
	AttackPollution     = "pollution"
	AttackSybilFlood    = "sybil_flood"
	AttackFreeRiderWave = "free_rider_wave"
)

// ReplayAttacks lists the matrix columns in render order.
func ReplayAttacks() []string {
	return []string{
		AttackJoinProbe, AttackCrossDomain, AttackDomainSpoof,
		AttackPollution, AttackSybilFlood, AttackFreeRiderWave,
	}
}

// CellResult is one (profile, attack) outcome.
type CellResult struct {
	Attack string
	// Succeeded means the ATTACK succeeded — the profile is exposed.
	Succeeded bool
	// Detail is a human-readable note (counts, shares) for test logs;
	// it carries run-variable numbers and is never part of the golden.
	Detail string
}

// ProfileReplay is one matrix row: every attack replayed against one
// deployed profile.
type ProfileReplay struct {
	Profile string
	Cells   []CellResult
}

// Matrix is the full replay outcome.
type Matrix struct {
	Seed int64
	Rows []ProfileReplay
}

// Cell looks up one outcome.
func (m *Matrix) Cell(profile, attack string) (CellResult, bool) {
	for _, row := range m.Rows {
		if row.Profile != profile {
			continue
		}
		for _, c := range row.Cells {
			if c.Attack == attack {
				return c, true
			}
		}
	}
	return CellResult{}, false
}

// Markdown renders the committed defense matrix. The table holds only
// the boolean verdicts (details are run-variable), so the rendering is
// a pure function of the verdicts and the golden never drifts on
// timing noise.
func (m *Matrix) Markdown() string {
	var b strings.Builder
	b.WriteString("# Defense matrix: attack replays, before and after\n\n")
	b.WriteString("Generated by `TestDefenseMatrix` (`go test ./internal/replay -run TestDefenseMatrix`,\n")
	fmt.Fprintf(&b, "seed %d; regenerate with `PDNSEC_UPDATE_GOLDEN=1`). Every attack the\n", m.Seed)
	b.WriteString("reproduction implements is replayed against every provider profile:\n")
	b.WriteString("**exposed** means the attack succeeded against that deployment,\n")
	b.WriteString("**blocked** means the same attack binary failed.\n\n")
	b.WriteString("- `join_probe` — unauthenticated signaling join (§IV-B)\n")
	b.WriteString("- `cross_domain` — stolen credential used from the attacker's own origin for the attacker's own stream (§IV-B)\n")
	b.WriteString("- `domain_spoof` — stolen credential plus a signaling MITM rewriting Origin/Referer to the victim domain (§IV-B)\n")
	b.WriteString("- `pollution` — fake-CDN + malicious-peer segment substitution propagating to an honest viewer (§IV-C)\n")
	b.WriteString("- `sybil_flood` — one host squats honest neighbor slots under a 24-identity mill\n")
	b.WriteString("- `free_rider_wave` — a single-host leech farm downloads from peers and uploads nothing\n\n")
	b.WriteString("| profile |")
	for _, a := range ReplayAttacks() {
		b.WriteString(" " + a + " |")
	}
	b.WriteString("\n|---|")
	for range ReplayAttacks() {
		b.WriteString("---|")
	}
	b.WriteString("\n")
	for _, row := range m.Rows {
		b.WriteString("| " + row.Profile + " |")
		for _, a := range ReplayAttacks() {
			verdict := "—"
			for _, c := range row.Cells {
				if c.Attack == a {
					if c.Succeeded {
						verdict = "exposed"
					} else {
						verdict = "blocked"
					}
				}
			}
			b.WriteString(" " + verdict + " |")
		}
		b.WriteString("\n")
	}
	b.WriteString("\nThe `ecdn` row's pollution/squatting cells model an *insider* — the\n")
	b.WriteString("tenant credential defeats key theft (the credential rows), but a peer\n")
	b.WriteString("legitimately inside the swarm still pollutes and squats because segment\n")
	b.WriteString("integrity and per-host identity accounting are unaddressed (§VI).\n")
	b.WriteString("`secure` is the counterfactual profile this repo adds: authenticated\n")
	b.WriteString("transport plus signed per-segment manifests (docs/secure.md).\n")
	return b.String()
}

// BuildMatrix replays every attack against every profile. Rows run
// concurrently (each on its own simulated network); the error covers
// harness failures only — attack outcomes, including expected
// failures, land in the cells.
func BuildMatrix(ctx context.Context, seed int64) (*Matrix, error) {
	profiles := provider.AllProfiles()
	rows := make([]ProfileReplay, len(profiles))
	errs := make([]error, len(profiles))
	var wg sync.WaitGroup
	for i, prof := range profiles {
		wg.Add(1)
		go func(i int, prof provider.Profile) {
			defer wg.Done()
			rows[i], errs[i] = replayProfile(ctx, prof, seed)
		}(i, prof)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("attack: replay against %s: %w", profiles[i].Name, err)
		}
	}
	return &Matrix{Seed: seed, Rows: rows}, nil
}

// replaySegments is the pollution-cell VOD length; segments 3 and 4
// are the polluted ones (past the slow-start window, so the refined
// same-size substitution propagates where the SDK lets it).
const replaySegments = 6

// replayProfile runs one matrix row. The signaling and pollution cells
// share one testbed; the population cells (sybil, free-rider) each run
// a chaos scenario on their own deployment.
func replayProfile(ctx context.Context, prof provider.Profile, seed int64) (ProfileReplay, error) {
	row := ProfileReplay{Profile: prof.Name}

	// The testbed deploys each profile's pollution defense: hardened's is
	// the §V-B IM quorum, secure's the provider-signed manifest.
	tb, err := analyzer.NewTestbed(ctx, analyzer.TestbedConfig{
		Profile: prof,
		Video:   analyzer.SmallVideo("bbb", replaySegments, 16<<10),
		Options: provider.Options{Seed: seed},
	})
	if err != nil {
		return row, err
	}
	defer tb.Close()

	bed := &replayBed{tb: tb, victimDomain: "customer.com"}
	for _, cell := range []func(context.Context) (CellResult, error){
		bed.joinProbeCell,
		bed.crossDomainCell,
		bed.domainSpoofCell,
		bed.pollutionCell,
	} {
		c, err := cell(ctx)
		if err != nil {
			return row, err
		}
		row.Cells = append(row.Cells, c)
	}

	sybil, err := sybilFloodCell(ctx, prof.Name, seed)
	if err != nil {
		return row, err
	}
	row.Cells = append(row.Cells, sybil)
	freeRider, err := freeRiderWaveCell(ctx, prof.Name, seed)
	if err != nil {
		return row, err
	}
	row.Cells = append(row.Cells, freeRider)
	return row, nil
}

// replayBed wraps a testbed with the attacker's view of it.
type replayBed struct {
	tb           *analyzer.Testbed
	victimDomain string
}

// attackerHost places an attacker machine. Attackers sit in the same
// country as the testbed's viewers so geo-matching profiles cannot
// dodge the replay by never pairing them.
func (b *replayBed) attackerHost() (*netsim.Host, error) {
	return b.tb.NewViewerHost("US")
}

// joinProbeCell: does the service accept a peer with no credential at
// all? Only the extracted-SDK private provider does.
func (b *replayBed) joinProbeCell(ctx context.Context) (CellResult, error) {
	host, err := b.attackerHost()
	if err != nil {
		return CellResult{}, err
	}
	// An attacker holding no credential at all.
	ok, err := attack.CrossDomain(ctx, pdnclient.Config{Host: host, SignalAddrs: b.tb.Dep.SignalAddrs})
	if err != nil {
		return CellResult{}, err
	}
	return CellResult{Attack: AttackJoinProbe, Succeeded: ok,
		Detail: fmt.Sprintf("unauthenticated join accepted=%v", ok)}, nil
}

// crossDomainCell: stolen credential, attacker origin, attacker video.
func (b *replayBed) crossDomainCell(ctx context.Context) (CellResult, error) {
	host, err := b.attackerHost()
	if err != nil {
		return CellResult{}, err
	}
	ok, err := attack.CrossDomain(ctx, b.tb.StolenConfig(host, 1))
	if err != nil {
		return CellResult{}, err
	}
	return CellResult{Attack: AttackCrossDomain, Succeeded: ok,
		Detail: fmt.Sprintf("stolen-credential cross-domain join accepted=%v", ok)}, nil
}

// domainSpoofCell: the same stolen-credential join, but routed through
// the MITM proxy that rewrites Origin/Referer to the victim domain —
// the attack that defeats domain allowlists.
func (b *replayBed) domainSpoofCell(ctx context.Context) (CellResult, error) {
	attacker, err := b.attackerHost()
	if err != nil {
		return CellResult{}, err
	}
	proxyHost, err := b.attackerHost()
	if err != nil {
		return CellResult{}, err
	}
	ok, err := attack.DomainSpoof(ctx, b.tb.StolenConfig(attacker, 2), proxyHost, b.victimDomain)
	if err != nil {
		return CellResult{}, err
	}
	return CellResult{Attack: AttackDomainSpoof, Succeeded: ok,
		Detail: fmt.Sprintf("spoofed-origin join accepted=%v", ok)}, nil
}

// pollutionCell: fake CDN + malicious peer collusion, observed by an
// honest victim viewer. Success means the victim PLAYED a polluted
// segment — the paper's §IV-C result.
func (b *replayBed) pollutionCell(ctx context.Context) (CellResult, error) {
	vic, err := b.tb.Pollution(ctx, mitm.SameSizePollution([]int{3, 4}))
	if err != nil {
		return CellResult{}, err
	}
	return CellResult{Attack: AttackPollution, Succeeded: len(vic.PollutedSegments) > 0, Detail: vic.String()}, nil
}

// identityBudget is the per-host identity budget the hardened policy
// ships; the population cells call an attack successful when the
// adversary got MORE out of the swarm than any budget-respecting host
// could.
func identityBudget() int { return provider.Hardened().Policy.MaxPeersPerHost }

// sybilFloodCell runs the 24-identity mill through the chaos harness
// and counts how many distinct mill identities made it into honest
// viewers' neighbor sets. More than the per-host budget means the
// matcher let one machine squat the swarm's upload slots.
func sybilFloodCell(ctx context.Context, profile string, seed int64) (CellResult, error) {
	sc := chaos.SybilFlood(10*time.Millisecond, 24)
	res, err := chaos.RunScenario(ctx, chaos.SwarmConfig{
		Viewers:  10,
		Segments: 4,
		Seed:     seed,
		Profile:  profile,
	}, sc)
	if err != nil {
		return CellResult{}, err
	}
	advertised := adversaryNeighbors(res, population.BehaviorSybil)
	share, peak := res.SybilSlotShare()
	return CellResult{Attack: AttackSybilFlood, Succeeded: advertised > identityBudget(),
		Detail: fmt.Sprintf("%d distinct mill identities became honest neighbors (budget %d; slot share %.2f, peak %d)",
			advertised, identityBudget(), share, peak)}, nil
}

// freeRiderWaveCell runs a 16-member single-host leech farm and counts
// farm members that extracted P2P bytes. More than the per-host budget
// means the swarm served a farm no deployed matcher could see.
func freeRiderWaveCell(ctx context.Context, profile string, seed int64) (CellResult, error) {
	sc := chaos.FreeRiderWave(10*time.Millisecond, 16, 0, 0)
	res, err := chaos.RunScenario(ctx, chaos.SwarmConfig{
		Viewers:  10,
		Segments: 8,
		Seed:     seed,
		Profile:  profile,
	}, sc)
	if err != nil {
		return CellResult{}, err
	}
	leeching := 0
	for _, v := range res.Viewers {
		if v.Behavior == population.BehaviorFreeRider && v.Stats.P2PDownBytes > 0 {
			leeching++
		}
	}
	return CellResult{Attack: AttackFreeRiderWave, Succeeded: leeching > identityBudget(),
		Detail: fmt.Sprintf("%d/16 farm members leeched P2P bytes (budget %d; jain %.3f)",
			leeching, identityBudget(), res.JainFairness())}, nil
}

// adversaryNeighbors counts the distinct peers of the given behavior
// that appear in any honest viewer's neighbor set over the run.
func adversaryNeighbors(res *chaos.Result, b population.Behavior) int {
	mill := make(map[string]bool)
	for _, v := range res.Viewers {
		if v.Behavior == b && v.Peer != nil {
			if id := v.Peer.ID(); id != "" {
				mill[id] = true
			}
		}
	}
	seen := make(map[string]bool)
	for _, v := range res.Viewers {
		if !v.Honest() || v.Peer == nil {
			continue
		}
		for _, id := range v.Peer.NeighborIDs() {
			if mill[id] {
				seen[id] = true
			}
		}
	}
	return len(seen)
}
