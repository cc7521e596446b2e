// Package detector implements the paper's PDN customer detection
// framework (§III-C): a signature-based scanner over websites (BFS
// crawl to depth 3, gated on a <video> tag) and Android APKs
// (namespace + manifest-key matching), followed by dynamic confirmation
// that classifies a session capture — STUN binding requests followed by
// a DTLS handshake between candidate peers — as live PDN traffic. It
// also performs the §IV-B API-key extraction via regular expressions,
// which fails exactly where the paper's did: on obfuscated or
// runtime-loaded keys.
package detector

import (
	"context"
	"encoding/json"
	"regexp"
	"sort"
	"strings"

	"github.com/stealthy-peers/pdnsec/internal/capture"
	"github.com/stealthy-peers/pdnsec/internal/corpus"
	"github.com/stealthy-peers/pdnsec/internal/netsim"
	"github.com/stealthy-peers/pdnsec/internal/provider"
)

// MaxDepth is the crawl depth limit (§III-C: "within a depth of 3").
const MaxDepth = 3

// ScanResult is the static-scan verdict for one site.
type ScanResult struct {
	Domain string `json:"domain"`
	// Provider is the matched public provider ("" if none).
	Provider string `json:"provider,omitempty"`
	// GenericWebRTC marks sites matching only generic WebRTC patterns.
	GenericWebRTC bool `json:"generic_webrtc,omitempty"`
	// MatchedPath is where the signature was found.
	MatchedPath string `json:"matched_path,omitempty"`
	// PagesCrawled counts the crawl's work.
	PagesCrawled int `json:"pages_crawled"`
}

// Potential reports whether the static scan flagged the site.
func (r ScanResult) Potential() bool { return r.Provider != "" || r.GenericWebRTC }

// WebScanner matches provider signatures in crawled pages.
type WebScanner struct {
	sigs map[string][]string // provider name -> URL patterns
	// genericPatterns catch WebRTC use without a known provider.
	genericPatterns []string
}

// NewWebScanner builds a scanner from provider profiles.
func NewWebScanner(profiles []provider.Profile) *WebScanner {
	s := &WebScanner{
		sigs:            make(map[string][]string, len(profiles)),
		genericPatterns: []string{"RTCPeerConnection", "webrtc", "iceServers"},
	}
	for _, p := range profiles {
		s.sigs[p.Name] = append([]string(nil), p.Signatures.URLPatterns...)
	}
	return s
}

// ScanSite crawls one site breadth-first from "/" to MaxDepth, only if
// the landing page carries a video tag, stopping at the first provider
// signature.
func (s *WebScanner) ScanSite(site *corpus.Site) ScanResult {
	res := ScanResult{Domain: site.Domain}
	home := site.Pages["/"]
	if home == nil || !home.HasVideoTag {
		return res
	}
	type queued struct {
		path  string
		depth int
	}
	visited := map[string]bool{"/": true}
	queue := []queued{{path: "/", depth: 0}}
	generic := false
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		page := site.Pages[cur.path]
		if page == nil {
			continue
		}
		res.PagesCrawled++
		content := page.HTML + "\n" + strings.Join(page.Scripts, "\n")
		for prov, patterns := range s.sigs {
			for _, pat := range patterns {
				if strings.Contains(content, pat) {
					res.Provider = prov
					res.MatchedPath = cur.path
					return res
				}
			}
		}
		for _, pat := range s.genericPatterns {
			if strings.Contains(content, pat) {
				generic = true
			}
		}
		if cur.depth < MaxDepth {
			for _, link := range page.Links {
				if !visited[link] {
					visited[link] = true
					queue = append(queue, queued{path: link, depth: cur.depth + 1})
				}
			}
		}
	}
	res.GenericWebRTC = generic
	return res
}

// keyPatterns extract embedded API keys the way the paper did; they
// fail on obfuscated (_0x...) forms by construction.
var keyPatterns = map[string]*regexp.Regexp{
	"peer5":      regexp.MustCompile(`peer5\.js\?id=([A-Za-z0-9_-]+)"`),
	"streamroot": regexp.MustCompile(`window\.streamrootKey="([A-Za-z0-9_-]+)"`),
	"viblast":    regexp.MustCompile(`viblast\(\{key:"([A-Za-z0-9_-]+)"\}\)`),
}

// ExtractedKey is an API key recovered from a customer's pages.
type ExtractedKey struct {
	Domain   string `json:"domain"`
	Provider string `json:"provider"`
	Key      string `json:"key"`
}

// ExtractKeys runs the regex extraction over every page of a site.
func ExtractKeys(site *corpus.Site) []ExtractedKey {
	var out []ExtractedKey
	seen := map[string]bool{}
	paths := make([]string, 0, len(site.Pages))
	for p := range site.Pages {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	for _, path := range paths {
		page := site.Pages[path]
		content := page.HTML + "\n" + strings.Join(page.Scripts, "\n")
		for prov, re := range keyPatterns {
			for _, m := range re.FindAllStringSubmatch(content, -1) {
				if !seen[m[1]] {
					seen[m[1]] = true
					out = append(out, ExtractedKey{Domain: site.Domain, Provider: prov, Key: m[1]})
				}
			}
		}
	}
	return out
}

// ScanAPK matches one APK's namespaces and manifest keys against
// provider signatures.
func ScanAPK(apk corpus.APK, profiles []provider.Profile) (string, bool) {
	for _, p := range profiles {
		for _, ns := range p.Signatures.Namespaces {
			for _, have := range apk.Namespaces {
				if strings.HasPrefix(have, ns) {
					return p.Name, true
				}
			}
		}
		for _, mk := range p.Signatures.ManifestKeys {
			if _, ok := apk.Manifest[mk]; ok {
				return p.Name, true
			}
		}
	}
	return "", false
}

// ConfirmDynamic applies the dynamic PDN-traffic rule to a capture.
func ConfirmDynamic(pkts []netsim.Packet) bool {
	return capture.ConfirmPDN(pkts)
}

// AppConfig is the SDK configuration recovered from an app's unprotected
// config variable (§IV-D, "resource squatting in the wild").
type AppConfig struct {
	CellularDownload bool `json:"cellularDownload"`
	CellularUpload   bool `json:"cellularUpload"`
}

// ExtractAppConfig recovers the SDK configuration from any version of
// an app that carries the unprotected config variable; the paper used
// this to find customers allowing cellular upload.
func ExtractAppConfig(app *corpus.App) (AppConfig, bool) {
	for _, apk := range app.Versions {
		raw, ok := apk.Manifest["com.peer5.Config"]
		if !ok {
			continue
		}
		var cfg AppConfig
		if err := json.Unmarshal([]byte(raw), &cfg); err != nil {
			continue
		}
		return cfg, true
	}
	return AppConfig{}, false
}

// Report aggregates a full pipeline run — the material for Tables I-IV.
type Report struct {
	// Per public provider.
	PotentialSites map[string]int `json:"potential_sites"`
	ConfirmedSites map[string]int `json:"confirmed_sites"`
	PotentialApps  map[string]int `json:"potential_apps"`
	ConfirmedApps  map[string]int `json:"confirmed_apps"`
	PotentialAPKs  map[string]int `json:"potential_apks"`
	ConfirmedAPKs  map[string]int `json:"confirmed_apks"`

	// Generic WebRTC population (§III-D).
	GenericWebRTCSites int `json:"generic_webrtc_sites"`
	TopDynamicSites    int `json:"top_dynamic_sites"`
	ConfirmedPrivate   int `json:"confirmed_private"`
	AdultTURN          int `json:"adult_turn"`
	TrackingOnly       int `json:"tracking_only"`
	Untriggered        int `json:"untriggered"`

	// Key extraction (§IV-B).
	ExtractedKeys []ExtractedKey `json:"extracted_keys"`

	// CellularUploadApps lists apps whose recovered SDK config allows
	// cellular upload (§IV-D); LeechModeApps allow download only.
	CellularUploadApps []string `json:"cellular_upload_apps"`
	LeechModeApps      []string `json:"leech_mode_apps"`

	// Confirmed customer details for Tables II-IV.
	ConfirmedSiteList    []ConfirmedSite `json:"confirmed_site_list"`
	ConfirmedAppList     []ConfirmedApp  `json:"confirmed_app_list"`
	ConfirmedPrivateList []PrivateSite   `json:"confirmed_private_list"`

	SitesScanned int `json:"sites_scanned"`
	APKsScanned  int `json:"apks_scanned"`
}

// ConfirmedSite is a Table II row.
type ConfirmedSite struct {
	Domain        string `json:"domain"`
	Provider      string `json:"provider"`
	MonthlyVisits int64  `json:"monthly_visits"`
}

// ConfirmedApp is a Table III row.
type ConfirmedApp struct {
	Package   string `json:"package"`
	Provider  string `json:"provider"`
	Downloads int64  `json:"downloads"`
}

// PrivateSite is a Table IV row.
type PrivateSite struct {
	Domain        string `json:"domain"`
	Server        string `json:"server"`
	MonthlyVisits int64  `json:"monthly_visits"`
}

// topRankCutoff bounds which generic-WebRTC sites receive dynamic
// analysis (§III-D: "the top 57 websites that rank in top 10K").
const topRankCutoff = 10_000

// WebRTCVerdict classifies a generic-WebRTC site's dynamic capture.
// The string values are part of the checkpoint format.
type WebRTCVerdict string

// WebRTC verdicts for dynamically analyzed generic-WebRTC sites.
const (
	WebRTCNotAnalyzed WebRTCVerdict = ""            // not flagged or below the rank cutoff
	WebRTCPrivatePDN  WebRTCVerdict = "private"     // STUN + DTLS between peers: a private PDN
	WebRTCRelayOnly   WebRTCVerdict = "relay"       // DTLS to a relay, no peer STUN (adult TURN)
	WebRTCTracking    WebRTCVerdict = "tracking"    // STUN without DTLS: IP discovery only
	WebRTCUntriggered WebRTCVerdict = "untriggered" // nothing triggered in the session
)

// SiteOutcome is everything the pipeline learns about one site: the
// static scan, any extracted keys, and the dynamic-analysis verdicts.
// It is the unit of work ParallelPipeline scans into one result slot.
type SiteOutcome struct {
	Scan      ScanResult
	Keys      []ExtractedKey
	Confirmed bool
	WebRTC    WebRTCVerdict
}

// ScanSiteFull runs one site through the whole per-site flow: static
// signature scan, key extraction, and — when the static scan or the
// §III-D rank gate calls for it — dynamic confirmation.
func (s *WebScanner) ScanSiteFull(site *corpus.Site, seed int64) SiteOutcome {
	out := SiteOutcome{Scan: s.ScanSite(site)}
	switch {
	case out.Scan.Provider != "":
		out.Keys = ExtractKeys(site)
		out.Confirmed = ConfirmDynamic(site.DynamicCapture(seed))
	case out.Scan.GenericWebRTC && site.Rank <= topRankCutoff:
		pkts := site.DynamicCapture(seed)
		switch {
		case ConfirmDynamic(pkts):
			out.WebRTC = WebRTCPrivatePDN
		case isRelayOnly(pkts):
			out.WebRTC = WebRTCRelayOnly
		case isTrackingOnly(pkts):
			out.WebRTC = WebRTCTracking
		default:
			out.WebRTC = WebRTCUntriggered
		}
	}
	return out
}

// AppOutcome is one app's scan product (static APK scan over every
// version, config recovery, dynamic confirmation).
type AppOutcome struct {
	Provider        string
	SignedVersions  int
	VersionsScanned int
	Config          *AppConfig
	Confirmed       bool
}

// ScanAppFull runs one app through the per-app flow.
func ScanAppFull(app *corpus.App, profiles []provider.Profile, seed int64) AppOutcome {
	out := AppOutcome{VersionsScanned: len(app.Versions)}
	for _, apk := range app.Versions {
		if prov, ok := ScanAPK(apk, profiles); ok {
			out.Provider = prov
			out.SignedVersions++
		}
	}
	if out.Provider == "" {
		return out
	}
	if cfg, ok := ExtractAppConfig(app); ok {
		out.Config = &cfg
	}
	out.Confirmed = ConfirmDynamic(app.DynamicCapture(seed))
	return out
}

// Reduce folds per-item outcomes into the Report, walking them in
// corpus order. Because every outcome is positionally tied to its site
// or app, the fold — and therefore every rendered table — is identical
// whether the outcomes were computed sequentially or by a racing worker
// pool.
func Reduce(c *corpus.Corpus, sites []SiteOutcome, apps []AppOutcome) *Report {
	rep := &Report{
		PotentialSites: map[string]int{},
		ConfirmedSites: map[string]int{},
		PotentialApps:  map[string]int{},
		ConfirmedApps:  map[string]int{},
		PotentialAPKs:  map[string]int{},
		ConfirmedAPKs:  map[string]int{},
	}
	for i, out := range sites {
		site := c.Sites[i]
		rep.SitesScanned++
		switch {
		case out.Scan.Provider != "":
			rep.PotentialSites[out.Scan.Provider]++
			rep.ExtractedKeys = append(rep.ExtractedKeys, out.Keys...)
			if out.Confirmed {
				rep.ConfirmedSites[out.Scan.Provider]++
				rep.ConfirmedSiteList = append(rep.ConfirmedSiteList, ConfirmedSite{
					Domain: site.Domain, Provider: out.Scan.Provider, MonthlyVisits: site.MonthlyVisits,
				})
			}
		case out.Scan.GenericWebRTC:
			rep.GenericWebRTCSites++
			if site.Rank <= topRankCutoff {
				rep.TopDynamicSites++
				switch out.WebRTC {
				case WebRTCPrivatePDN:
					rep.ConfirmedPrivate++
					rep.ConfirmedPrivateList = append(rep.ConfirmedPrivateList, PrivateSite{
						Domain: site.Domain, Server: site.Truth.PrivateServer, MonthlyVisits: site.MonthlyVisits,
					})
				case WebRTCRelayOnly:
					rep.AdultTURN++
				case WebRTCTracking:
					rep.TrackingOnly++
				default:
					rep.Untriggered++
				}
			}
		}
	}
	for i, out := range apps {
		app := c.Apps[i]
		rep.APKsScanned += out.VersionsScanned
		if out.Provider == "" {
			continue
		}
		if out.Config != nil {
			if out.Config.CellularUpload {
				rep.CellularUploadApps = append(rep.CellularUploadApps, app.Package)
			} else if out.Config.CellularDownload {
				rep.LeechModeApps = append(rep.LeechModeApps, app.Package)
			}
		}
		rep.PotentialApps[out.Provider]++
		rep.PotentialAPKs[out.Provider] += out.SignedVersions
		if out.Confirmed {
			rep.ConfirmedApps[out.Provider]++
			rep.ConfirmedAPKs[out.Provider] += out.SignedVersions
			rep.ConfirmedAppList = append(rep.ConfirmedAppList, ConfirmedApp{
				Package: app.Package, Provider: out.Provider, Downloads: app.Downloads,
			})
		}
	}
	return rep
}

// Pipeline runs the full detection flow over a corpus sequentially,
// checking ctx between items so a scan can be cancelled mid-corpus.
// It is the single-threaded reference ParallelPipeline must match
// byte for byte.
func Pipeline(ctx context.Context, c *corpus.Corpus, profiles []provider.Profile, seed int64) (*Report, error) {
	scanner := NewWebScanner(profiles)
	siteOut := make([]SiteOutcome, len(c.Sites))
	for i, site := range c.Sites {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		siteOut[i] = scanner.ScanSiteFull(site, seed)
	}
	appOut := make([]AppOutcome, len(c.Apps))
	for i, app := range c.Apps {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		appOut[i] = ScanAppFull(app, profiles, seed)
	}
	return Reduce(c, siteOut, appOut), nil
}

// isRelayOnly matches TURN-style captures: DTLS records present but no
// STUN binding between peer pairs.
func isRelayOnly(pkts []netsim.Packet) bool {
	return len(capture.FindDTLS(pkts)) > 0 && len(capture.FindSTUN(pkts)) == 0
}

// isTrackingOnly matches WebRTC-for-tracking captures: STUN without any
// DTLS transport.
func isTrackingOnly(pkts []netsim.Packet) bool {
	return len(capture.FindSTUN(pkts)) > 0 && len(capture.FindDTLS(pkts)) == 0
}
