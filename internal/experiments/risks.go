package experiments

import (
	"context"
	"fmt"
	"strings"

	"github.com/stealthy-peers/pdnsec/internal/analyzer"
	"github.com/stealthy-peers/pdnsec/internal/attack"
	"github.com/stealthy-peers/pdnsec/internal/auth"
	"github.com/stealthy-peers/pdnsec/internal/provider"
)

// KeyProbeResult is the per-extracted-key cross-domain outcome backing
// Table V's "a/b = vulnerable/valid keys" cells.
type KeyProbeResult struct {
	Provider   string `json:"provider"`
	Valid      int    `json:"valid"`
	Expired    int    `json:"expired"`
	Vulnerable int    `json:"vulnerable"` // valid keys without an allowlist
}

// ProviderColumn is one provider's Table V column.
type ProviderColumn struct {
	Provider string             `json:"provider"`
	KeyProbe KeyProbeResult     `json:"key_probe"`
	Verdicts []analyzer.Verdict `json:"verdicts"`
}

// TableVResult is the full risk matrix.
type TableVResult struct {
	Columns []ProviderColumn `json:"columns"`
	Private ProviderColumn   `json:"private"`
}

// RunTableV executes the peer-authentication key probes (against the
// corpus's extracted keys) and the full analyzer battery per provider,
// plus the private-service column (Mango-like).
func RunTableV(ctx context.Context, det *DetectionResult) (*TableVResult, error) {
	res := &TableVResult{}
	for _, prof := range provider.PublicProfiles() {
		col, err := providerColumn(ctx, prof, det)
		if err != nil {
			return nil, fmt.Errorf("experiments: table V %s: %w", prof.Name, err)
		}
		res.Columns = append(res.Columns, col)
	}
	priv, err := providerColumn(ctx, provider.MangoPrivate(), det)
	if err != nil {
		return nil, fmt.Errorf("experiments: table V private: %w", err)
	}
	res.Private = priv
	return res, nil
}

func providerColumn(ctx context.Context, prof provider.Profile, det *DetectionResult) (ProviderColumn, error) {
	col := ProviderColumn{Provider: prof.Name}
	if det != nil && prof.Public {
		probe, err := probeExtractedKeys(ctx, prof, det)
		if err != nil {
			return col, err
		}
		col.KeyProbe = probe
	}
	verdicts, err := analyzer.RunAll(ctx, prof)
	if err != nil {
		return col, err
	}
	col.Verdicts = verdicts
	return col, nil
}

// probeExtractedKeys reproduces §IV-B's real-world validation: every
// regex-extracted key is installed into a deployed provider exactly as
// its corpus ground truth describes (valid/expired, allowlisted or
// not), then probed with the cross-domain attack.
func probeExtractedKeys(ctx context.Context, prof provider.Profile, det *DetectionResult) (KeyProbeResult, error) {
	res := KeyProbeResult{Provider: prof.Name}
	tb, err := analyzer.NewTestbed(ctx, analyzer.TestbedConfig{Profile: prof})
	if err != nil {
		return res, err
	}
	defer tb.Close()

	// Index corpus truth by key value.
	truthByKey := map[string]*struct {
		valid, allowlisted bool
		domain             string
	}{}
	for _, site := range det.Corpus.Sites {
		if site.Truth.APIKey != "" {
			truthByKey[site.Truth.APIKey] = &struct {
				valid, allowlisted bool
				domain             string
			}{site.Truth.KeyValid, site.Truth.KeyAllowlisted, site.Domain}
		}
	}

	attackerHost, err := tb.NewViewerHost("US")
	if err != nil {
		return res, err
	}
	stolen := tb.StolenConfig(attackerHost, 1)
	for _, ek := range det.Report.ExtractedKeys {
		if ek.Provider != prof.Name {
			continue
		}
		truth, ok := truthByKey[ek.Key]
		if !ok {
			continue
		}
		var allow []string
		if truth.allowlisted {
			allow = []string{truth.domain}
		}
		tb.Dep.Keys.AddKey(auth.Key{
			Value:     ek.Key,
			Customer:  truth.domain,
			Allowlist: allow,
			Expired:   !truth.valid,
		})
		if !truth.valid {
			res.Expired++
			continue
		}
		res.Valid++
		stolen.APIKey = ek.Key
		vulnerable, err := attack.CrossDomain(ctx, stolen)
		if err != nil {
			return res, err
		}
		if vulnerable {
			res.Vulnerable++
		}
	}
	return res, nil
}

// Render prints the risk matrix in Table V's shape.
func (r *TableVResult) Render() string {
	var b strings.Builder
	b.WriteString("Table V: Security and privacy risks of PDN services\n")
	cols := append([]ProviderColumn(nil), r.Columns...)
	cols = append(cols, r.Private)
	fmt.Fprintf(&b, "%-24s", "Risk")
	for _, c := range cols {
		fmt.Fprintf(&b, " %-14s", c.Provider)
	}
	b.WriteString("\n")

	row := func(label, risk string) {
		fmt.Fprintf(&b, "%-24s", label)
		for _, c := range cols {
			cell := "?"
			for _, v := range c.Verdicts {
				if v.Risk != risk {
					continue
				}
				switch {
				case !v.Applicable:
					cell = "n/a"
				case risk == "cross-domain" && c.KeyProbe.Valid > 0:
					cell = fmt.Sprintf("%d/%d", c.KeyProbe.Vulnerable, c.KeyProbe.Valid)
				case v.Vulnerable:
					cell = "vulnerable"
				default:
					cell = "safe"
				}
			}
			fmt.Fprintf(&b, " %-14s", cell)
		}
		b.WriteString("\n")
	}
	b.WriteString("Peer Authentication\n")
	row("  cross-domain attack", analyzer.RiskCrossDomain)
	row("  domain-spoofing", analyzer.RiskDomainSpoofing)
	b.WriteString("Content Integrity\n")
	row("  direct pollution", analyzer.RiskDirectPollution)
	row("  segment pollution", analyzer.RiskSegmentPollution)
	b.WriteString("Peer Privacy\n")
	row("  IP leak", analyzer.RiskIPLeak)
	row("  resource squatting", analyzer.RiskResourceSquatting)
	return b.String()
}
