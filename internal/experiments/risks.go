package experiments

import (
	"context"
	"fmt"
	"strings"

	"github.com/stealthy-peers/pdnsec/internal/analyzer"
	"github.com/stealthy-peers/pdnsec/internal/attack"
	"github.com/stealthy-peers/pdnsec/internal/auth"
	"github.com/stealthy-peers/pdnsec/internal/battery"
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
	Provider string            `json:"provider"`
	KeyProbe KeyProbeResult    `json:"key_probe"`
	Verdicts []battery.Verdict `json:"verdicts"`
}

// TableVResult is the full risk matrix.
type TableVResult struct {
	Columns []ProviderColumn `json:"columns"`
	Private ProviderColumn   `json:"private"`
}

// tableVRows are Table V's rows under their section headings: the
// battery risks the paper's table reports.
var tableVRows = []struct{ section, label, risk string }{
	{"Peer Authentication", "  cross-domain attack", battery.RiskCrossDomain},
	{"", "  domain-spoofing", battery.RiskDomainSpoofing},
	{"Content Integrity", "  direct pollution", battery.RiskDirectPollution},
	{"", "  segment pollution", battery.RiskSegmentPollution},
	{"Peer Privacy", "  IP leak", battery.RiskIPLeak},
	{"", "  resource squatting", battery.RiskResourceSquatting},
}

// RunTableV executes the peer-authentication key probes (against the
// corpus's extracted keys) and Table V's battery cells per provider,
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
	for _, row := range tableVRows {
		v, err := battery.RunRisk(ctx, prof, row.risk)
		if err != nil {
			return col, fmt.Errorf("%s: %w", row.risk, err)
		}
		col.Verdicts = append(col.Verdicts, v)
	}
	return col, nil
}

// columns lists every provider column in render order, the private
// service last.
func (r *TableVResult) columns() []ProviderColumn {
	return append(append([]ProviderColumn(nil), r.Columns...), r.Private)
}

// verdict returns the column's cell for risk.
func (c ProviderColumn) verdict(risk string) (battery.Verdict, bool) {
	for _, v := range c.Verdicts {
		if v.Risk == risk {
			return v, true
		}
	}
	return battery.Verdict{}, false
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
	cols := r.columns()
	fmt.Fprintf(&b, "%-24s", "Risk")
	for _, c := range cols {
		fmt.Fprintf(&b, " %-14s", c.Provider)
	}
	b.WriteString("\n")

	for _, row := range tableVRows {
		if row.section != "" {
			b.WriteString(row.section + "\n")
		}
		fmt.Fprintf(&b, "%-24s", row.label)
		for _, c := range cols {
			cell := "?"
			if v, ok := c.verdict(row.risk); ok {
				cell = v.Status()
				if row.risk == battery.RiskCrossDomain && v.Applicable && c.KeyProbe.Valid > 0 {
					cell = fmt.Sprintf("%d/%d", c.KeyProbe.Vulnerable, c.KeyProbe.Valid)
				}
			}
			fmt.Fprintf(&b, " %-14s", cell)
		}
		b.WriteString("\n")
	}
	return b.String()
}
