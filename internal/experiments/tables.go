// Package experiments regenerates every table and figure in the paper's
// evaluation from the reproduction's own pipelines. Each experiment
// returns a structured result plus a Render method producing rows
// shaped like the paper's, and EXPERIMENTS.md records paper-vs-measured
// for each.
package experiments

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"github.com/stealthy-peers/pdnsec/internal/corpus"
	"github.com/stealthy-peers/pdnsec/internal/detector"
	"github.com/stealthy-peers/pdnsec/internal/provider"
)

// DetectionResult backs Tables I-IV.
type DetectionResult struct {
	Report *detector.Report
	Corpus *corpus.Corpus
}

// RunDetection executes the detector pipeline (detector.ParallelPipeline)
// over a generated corpus. fillerSites/fillerApps size the non-PDN
// background population (0 for defaults). The context's tracer, if any,
// records the scan passes.
func RunDetection(ctx context.Context, seed int64, fillerSites, fillerApps int) (*DetectionResult, error) {
	c := corpus.Generate(corpus.Params{Seed: seed, FillerSites: fillerSites, FillerApps: fillerApps})
	rep, err := detector.ParallelPipeline(ctx, c, provider.PublicProfiles(), seed)
	if err != nil {
		return nil, err
	}
	return &DetectionResult{Report: rep, Corpus: c}, nil
}

// providerOrder is the paper's table ordering.
var providerOrder = []string{"peer5", "streamroot", "viblast"}

// RenderTableI prints detected PDN customers per provider (Table I).
func (r *DetectionResult) RenderTableI() string {
	var b strings.Builder
	b.WriteString("Table I: Detected PDN customers (confirmed/potential)\n")
	fmt.Fprintf(&b, "%-12s %12s %12s %12s\n", "Provider", "websites", "apps", "APKs")
	totals := [6]int{}
	for _, prov := range providerOrder {
		rep := r.Report
		fmt.Fprintf(&b, "%-12s %7d/%-6d %7d/%-6d %7d/%-6d\n", prov,
			rep.ConfirmedSites[prov], rep.PotentialSites[prov],
			rep.ConfirmedApps[prov], rep.PotentialApps[prov],
			rep.ConfirmedAPKs[prov], rep.PotentialAPKs[prov])
		totals[0] += rep.ConfirmedSites[prov]
		totals[1] += rep.PotentialSites[prov]
		totals[2] += rep.ConfirmedApps[prov]
		totals[3] += rep.PotentialApps[prov]
		totals[4] += rep.ConfirmedAPKs[prov]
		totals[5] += rep.PotentialAPKs[prov]
	}
	fmt.Fprintf(&b, "%-12s %7d/%-6d %7d/%-6d %7d/%-6d\n", "Total",
		totals[0], totals[1], totals[2], totals[3], totals[4], totals[5])
	return b.String()
}

// RenderTableII prints the confirmed PDN websites with their traffic
// (Table II shape: domain, provider, monthly visits).
func (r *DetectionResult) RenderTableII() string {
	rows := append([]detector.ConfirmedSite(nil), r.Report.ConfirmedSiteList...)
	sort.Slice(rows, func(i, j int) bool { return rows[i].MonthlyVisits > rows[j].MonthlyVisits })
	var b strings.Builder
	b.WriteString("Table II: Confirmed PDN websites\n")
	fmt.Fprintf(&b, "%-28s %-12s %14s\n", "Website", "Provider", "MonthlyVisits")
	for _, row := range rows {
		fmt.Fprintf(&b, "%-28s %-12s %14s\n", row.Domain, row.Provider, humanCount(row.MonthlyVisits))
	}
	return b.String()
}

// RenderTableIII prints the confirmed PDN apps (Table III shape).
func (r *DetectionResult) RenderTableIII() string {
	rows := append([]detector.ConfirmedApp(nil), r.Report.ConfirmedAppList...)
	sort.Slice(rows, func(i, j int) bool { return rows[i].Downloads > rows[j].Downloads })
	var b strings.Builder
	b.WriteString("Table III: Confirmed PDN apps\n")
	fmt.Fprintf(&b, "%-28s %-12s %14s\n", "App", "Provider", "Downloads")
	for _, row := range rows {
		fmt.Fprintf(&b, "%-28s %-12s %14s\n", row.Package, row.Provider, humanCount(row.Downloads))
	}
	return b.String()
}

// RenderTableIV prints the confirmed private PDN services (Table IV
// shape: website, signaling server, monthly visits).
func (r *DetectionResult) RenderTableIV() string {
	rows := append([]detector.PrivateSite(nil), r.Report.ConfirmedPrivateList...)
	sort.Slice(rows, func(i, j int) bool { return rows[i].MonthlyVisits > rows[j].MonthlyVisits })
	var b strings.Builder
	b.WriteString("Table IV: Confirmed private PDN services\n")
	fmt.Fprintf(&b, "%-22s %-44s %14s\n", "Website", "PDN server", "MonthlyVisits")
	for _, row := range rows {
		fmt.Fprintf(&b, "%-22s %-44s %14s\n", row.Domain, row.Server, humanCount(row.MonthlyVisits))
	}
	fmt.Fprintf(&b, "(generic WebRTC matches: %d; dynamically analyzed top sites: %d; adult TURN relays: %d; WebRTC tracking: %d; untriggered: %d)\n",
		r.Report.GenericWebRTCSites, r.Report.TopDynamicSites, r.Report.AdultTURN, r.Report.TrackingOnly, r.Report.Untriggered)
	return b.String()
}

// RenderResourceSquattingWild prints the §IV-D cellular-configuration
// finding: apps whose recovered SDK config lets the PDN spend viewers'
// cellular data on uploads.
func (r *DetectionResult) RenderResourceSquattingWild() string {
	var b strings.Builder
	b.WriteString("§IV-D resource squatting in the wild (recovered SDK configs):\n")
	fmt.Fprintf(&b, "  apps allowing cellular upload: %d\n", len(r.Report.CellularUploadApps))
	for _, pkg := range r.Report.CellularUploadApps {
		fmt.Fprintf(&b, "    %s\n", pkg)
	}
	fmt.Fprintf(&b, "  apps in leech mode (cellular download only): %d\n", len(r.Report.LeechModeApps))
	return b.String()
}

func humanCount(n int64) string {
	switch {
	case n >= 1_000_000_000:
		return fmt.Sprintf("%.0fB", float64(n)/1e9)
	case n >= 1_000_000:
		return fmt.Sprintf("%.0fM", float64(n)/1e6)
	case n >= 1_000:
		return fmt.Sprintf("%.0fK", float64(n)/1e3)
	default:
		return fmt.Sprint(n)
	}
}
