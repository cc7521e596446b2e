// Package pdnsec is a laboratory for studying the security and privacy
// of peer-assisted delivery networks (PDNs), reproducing the systems
// and experiments of "Stealthy Peers: Understanding Security and
// Privacy Risks of Peer-Assisted Video Streaming" (DSN 2024).
//
// The library stands up complete PDN deployments — virtual Internet
// with NAT and geo-allocated addresses, HTTP CDN, HLS video, signaling
// server, STUN/ICE/DTLS-style peer transport, and the SDK peers that
// tie them together — and then runs the paper's measurement pipeline
// (signature detector + dynamic traffic confirmation), its attacks
// (service free riding, video segment pollution), its privacy analyses
// (IP leak, resource squatting), and its defenses (disposable
// video-binding JWTs, peer-assisted integrity checking, TURN relaying,
// geo-constrained matching).
//
// Three entry points cover most uses:
//
//   - NewTestbed deploys a provider profile and lets you place viewers,
//     attackers, and monitors on it (see examples/quickstart);
//   - AnalyzeMatrix runs the paper's full security-test battery
//     against a list of providers, AnalyzeRisk one test against one
//     (Table V; see ExampleAnalyzeMatrix);
//   - Reproduce regenerates every table and figure in the evaluation
//     and writes a report (cmd/experiments uses it to produce
//     EXPERIMENTS.md's measured numbers).
package pdnsec

import (
	"context"
	"fmt"
	"io"

	"github.com/stealthy-peers/pdnsec/internal/analyzer"
	"github.com/stealthy-peers/pdnsec/internal/battery"
	"github.com/stealthy-peers/pdnsec/internal/experiments"
	"github.com/stealthy-peers/pdnsec/internal/obs"
	"github.com/stealthy-peers/pdnsec/internal/provider"
)

// Provider is a PDN service profile: the knobs that distinguish the
// services the paper studied (billing plan, allowlist default, token
// binding, credential secrecy, SDK policy).
type Provider = provider.Profile

// Built-in provider profiles, named after the paper's subjects. The
// behaviours are re-implementations of the mechanisms the paper
// describes, not vendor code.
var (
	Peer5          = provider.Peer5
	Streamroot     = provider.Streamroot
	Viblast        = provider.Viblast
	MangoPrivate   = provider.MangoPrivate
	TencentPrivate = provider.TencentPrivate
	StrictPrivate  = provider.StrictPrivate
	ECDN           = provider.ECDN
	Hardened       = provider.Hardened
	Secure         = provider.Secure
	PublicProfiles = provider.PublicProfiles
	AllProfiles    = provider.AllProfiles
)

// Testbed is a running PDN deployment on a simulated network.
type Testbed = analyzer.Testbed

// TestbedConfig parameterizes NewTestbed.
type TestbedConfig = analyzer.TestbedConfig

// NewTestbed deploys a provider with a CDN and a video on a fresh
// simulated network. ctx bounds the deployment's background services.
func NewTestbed(ctx context.Context, cfg TestbedConfig) (*Testbed, error) {
	return analyzer.NewTestbed(ctx, cfg)
}

// Verdict is one security test's outcome.
type Verdict = battery.Verdict

// Risk identifiers accepted by AnalyzeRisk.
var AllRisks = battery.AllRisks

// Matrix is the battery's verdicts over a list of providers: one row
// per provider, each in AllRisks order.
type Matrix = battery.Matrix

// AnalyzeMatrix runs the full attack battery against every provider in
// profiles, the rows concurrently; over AllProfiles it is
// docs/defense_matrix.md. cmd/pdnanalyze prints it.
func AnalyzeMatrix(ctx context.Context, profiles []Provider) (Matrix, error) {
	return battery.BuildMatrix(ctx, profiles)
}

// AnalyzeRisk runs one named risk test against a provider.
func AnalyzeRisk(ctx context.Context, p Provider, risk string) (Verdict, error) {
	return battery.RunRisk(ctx, p, risk)
}

// Detection re-exports the measurement pipeline result.
type Detection = experiments.DetectionResult

// DetectCustomers runs the detector pipeline over a synthetic corpus
// seeded with the paper's landscape, cancellable through ctx.
// fillerSites/fillerApps size the non-PDN background population (0 for
// defaults). The scan fans out over GOMAXPROCS goroutines; Tables I-IV
// are identical at any width. A tracer set with obs.WithTracer records
// the scan passes.
func DetectCustomers(ctx context.Context, seed int64, fillerSites, fillerApps int) (*Detection, error) {
	return experiments.RunDetection(ctx, seed, fillerSites, fillerApps)
}

// rendered is a report section's text: res rendered, or err.
func rendered[R interface{ Render() string }](res R, err error) (string, error) {
	if err != nil {
		return "", err
	}
	return res.Render(), nil
}

// Reproduce regenerates every table and figure and writes a combined
// report to w. It is the engine behind cmd/experiments.
func Reproduce(ctx context.Context, w io.Writer, seed int64) error {
	_, err := reproduce(ctx, w, seed)
	return err
}

// reproduce is Reproduce, returning the attack battery it ran once
// over AllProfiles: every section that reports a verdict (Table V, the
// undefended half of the IM defense, eCDN) reads its cells from that
// one matrix, which is also docs/defense_matrix.md.
func reproduce(ctx context.Context, w io.Writer, seed int64) (battery.Matrix, error) {
	tracer := obs.FromContext(ctx) // nil when the caller passed none
	section := func(name string, body func() (string, error)) error {
		span := tracer.Begin("experiment_section", obs.A("section", name))
		text, err := body()
		span.End(obs.A("ok", err == nil))
		if err != nil {
			return fmt.Errorf("pdnsec: %s: %w", name, err)
		}
		fmt.Fprintf(w, "==== %s ====\n%s\n", name, text)
		return nil
	}

	det, err := experiments.RunDetection(ctx, seed, 0, 0)
	if err != nil {
		return nil, fmt.Errorf("pdnsec: detection: %w", err)
	}
	m, err := battery.BuildMatrix(ctx, provider.AllProfiles())
	if err != nil {
		return nil, fmt.Errorf("pdnsec: battery: %w", err)
	}
	steps := []struct {
		name string
		body func() (string, error)
	}{
		{"Table I", func() (string, error) { return det.RenderTableI(), nil }},
		{"Table II", func() (string, error) { return det.RenderTableII(), nil }},
		{"Table III", func() (string, error) { return det.RenderTableIII(), nil }},
		{"Table IV", func() (string, error) { return det.RenderTableIV(), nil }},
		{"Resource squatting in the wild (IV-D)", func() (string, error) { return det.RenderResourceSquattingWild(), nil }},
		{"Table V", func() (string, error) { return rendered(experiments.RunTableV(ctx, det, m)) }},
		{"Table VI", func() (string, error) { return rendered(experiments.RunTableVI(ctx, 3<<20)) }},
		{"Figure 4", func() (string, error) { return rendered(experiments.RunFigure4(ctx)) }},
		{"Figure 5", func() (string, error) { return rendered(experiments.RunFigure5(ctx, 3)) }},
		{"Free riding billing (IV-B)", func() (string, error) { return rendered(experiments.RunFreeRideBilling(ctx, 3)) }},
		{"IP leak in the wild (IV-D)", func() (string, error) { return rendered(experiments.RunIPLeakWild(seed)) }},
		{"Token size (V-A)", func() (string, error) { return rendered(experiments.RunTokenSize()) }},
		{"IM defense (V-B)", func() (string, error) { return rendered(experiments.RunIMDefense(ctx, m)) }},
		{"Pollution propagation (IV-C)", func() (string, error) { return rendered(experiments.RunPollutionPropagation(ctx, 10)) }},
		{"Slow-start ablation (IV-C)", func() (string, error) { return rendered(experiments.RunSlowStartAblation(ctx)) }},
		{"Defense cost comparison (V-B)", func() (string, error) { return rendered(experiments.RunDefenseCost(ctx)) }},
		{"Geo matching (V-C)", func() (string, error) {
			res, err := experiments.RunGeoMatchMitigation(seed)
			if err != nil {
				return "", err
			}
			return experiments.RenderGeoMatch(res), nil
		}},
		{"Microsoft eCDN (VI)", func() (string, error) { return rendered(experiments.ECDN(m)) }},
	}
	for _, s := range steps {
		if err := section(s.name, s.body); err != nil {
			return nil, err
		}
	}
	return m, nil
}
