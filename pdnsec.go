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
//   - AnalyzeProvider runs the paper's full security-test battery
//     against one provider (Table V);
//   - Reproduce regenerates every table and figure in the evaluation
//     and writes a report (cmd/experiments uses it to produce
//     EXPERIMENTS.md's measured numbers).
package pdnsec

import (
	"context"
	"fmt"
	"io"

	"github.com/stealthy-peers/pdnsec/internal/analyzer"
	"github.com/stealthy-peers/pdnsec/internal/detector"
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
type Verdict = analyzer.Verdict

// Risk identifiers accepted by AnalyzeRisk.
var AllRisks = analyzer.AllRisks

// AnalyzeProvider runs the full Table V battery against a provider.
func AnalyzeProvider(ctx context.Context, p Provider) ([]Verdict, error) {
	return analyzer.RunAll(ctx, p)
}

// AnalyzeRisk runs one named risk test against a provider.
func AnalyzeRisk(ctx context.Context, p Provider, risk string) (Verdict, error) {
	return analyzer.RunRisk(ctx, p, risk)
}

// Detection re-exports the measurement pipeline result.
type Detection = experiments.DetectionResult

// DetectOptions tunes DetectCustomersParallel: worker-pool size,
// checkpoint/resume path, and progress hooks.
type DetectOptions = detector.Options

// DetectCustomers runs the detector pipeline over a synthetic corpus
// seeded with the paper's landscape, cancellable through ctx.
// fillerSites/fillerApps size the non-PDN background population (0 for
// defaults).
func DetectCustomers(ctx context.Context, seed int64, fillerSites, fillerApps int) (*Detection, error) {
	return experiments.RunDetection(ctx, seed, fillerSites, fillerApps)
}

// DetectCustomersParallel runs the same pipeline on the concurrent
// scan-orchestration engine (internal/dispatch). Tables I-IV are
// byte-identical to DetectCustomers' at any worker count; opts adds
// checkpoint/resume and progress reporting.
func DetectCustomersParallel(ctx context.Context, seed int64, fillerSites, fillerApps int, opts DetectOptions) (*Detection, error) {
	return experiments.RunDetectionOpts(ctx, seed, fillerSites, fillerApps, opts)
}

// Reproduce regenerates every table and figure and writes a combined
// report to w. It is the engine behind cmd/experiments.
func Reproduce(ctx context.Context, w io.Writer, seed int64) error {
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

	// The detection scan runs on the dispatch engine at full width —
	// its reduce is deterministic, so the report is identical to a
	// sequential run, just faster.
	det, err := experiments.RunDetectionOpts(ctx, seed, 0, 0, detector.Options{})
	if err != nil {
		return fmt.Errorf("pdnsec: detection: %w", err)
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
		{"Table V", func() (string, error) {
			res, err := experiments.RunTableV(ctx, det)
			if err != nil {
				return "", err
			}
			return res.Render(), nil
		}},
		{"Table VI", func() (string, error) {
			res, err := experiments.RunTableVI(ctx, 3<<20)
			if err != nil {
				return "", err
			}
			return res.Render(), nil
		}},
		{"Figure 4", func() (string, error) {
			res, err := experiments.RunFigure4(ctx)
			if err != nil {
				return "", err
			}
			return res.Render(), nil
		}},
		{"Figure 5", func() (string, error) {
			res, err := experiments.RunFigure5(ctx, 3)
			if err != nil {
				return "", err
			}
			return res.Render(), nil
		}},
		{"Free riding billing (IV-B)", func() (string, error) {
			res, err := experiments.RunFreeRideBilling(ctx, 3)
			if err != nil {
				return "", err
			}
			return res.Render(), nil
		}},
		{"IP leak lab (IV-D)", func() (string, error) {
			res, err := experiments.RunIPLeakLab(ctx)
			if err != nil {
				return "", err
			}
			return res.Render(), nil
		}},
		{"IP leak in the wild (IV-D)", func() (string, error) {
			res, err := experiments.RunIPLeakWild(seed)
			if err != nil {
				return "", err
			}
			return res.Render(), nil
		}},
		{"Token size (V-A)", func() (string, error) {
			res, err := experiments.RunTokenSize()
			if err != nil {
				return "", err
			}
			return res.Render(), nil
		}},
		{"IM defense (V-B)", func() (string, error) {
			res, err := experiments.RunIMDefense(ctx)
			if err != nil {
				return "", err
			}
			return res.Render(), nil
		}},
		{"Pollution propagation (IV-C)", func() (string, error) {
			res, err := experiments.RunPollutionPropagation(ctx, 10)
			if err != nil {
				return "", err
			}
			return res.Render(), nil
		}},
		{"Defense cost comparison (V-B)", func() (string, error) {
			res, err := experiments.RunDefenseCost(ctx)
			if err != nil {
				return "", err
			}
			return res.Render(), nil
		}},
		{"Geo matching (V-C)", func() (string, error) {
			res, err := experiments.RunGeoMatchMitigation(seed)
			if err != nil {
				return "", err
			}
			return experiments.RenderGeoMatch(res), nil
		}},
		{"Microsoft eCDN (VI)", func() (string, error) {
			res, err := experiments.RunECDN(ctx)
			if err != nil {
				return "", err
			}
			return res.Render(), nil
		}},
	}
	for _, s := range steps {
		if err := section(s.name, s.body); err != nil {
			return err
		}
	}
	return nil
}
