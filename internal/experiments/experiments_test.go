package experiments

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"github.com/stealthy-peers/pdnsec/internal/analyzer"
	"github.com/stealthy-peers/pdnsec/internal/battery"
	"github.com/stealthy-peers/pdnsec/internal/cdn"
)

func testCtx(t *testing.T) context.Context {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	t.Cleanup(cancel)
	return ctx
}

func detection(t *testing.T) *DetectionResult {
	t.Helper()
	det, err := RunDetection(testCtx(t), 1, 100, 50)
	if err != nil {
		t.Fatal(err)
	}
	return det
}

// verdictRow is one literal battery-matrix row: provider's cell for
// each of risks, given as the status the cell renders.
func verdictRow(provider string, risks []string, statuses ...string) []battery.Verdict {
	row := make([]battery.Verdict, len(risks))
	for i, risk := range risks {
		row[i] = battery.Verdict{Provider: provider, Risk: risk, Applicable: statuses[i] != "n/a", Vulnerable: statuses[i] == "vulnerable"}
	}
	return row
}

func TestTablesIThroughIVRender(t *testing.T) {
	det := detection(t)
	t1 := det.RenderTableI()
	for _, want := range []string{"peer5", "16/60", "15/31", "199/548", "17/134", "18/38", "252/627"} {
		if !strings.Contains(t1, want) {
			t.Errorf("Table I missing %q:\n%s", want, t1)
		}
	}
	t2 := det.RenderTableII()
	if !strings.Contains(t2, "peer5") || strings.Count(t2, "\n") < 17 {
		t.Errorf("Table II too small:\n%s", t2)
	}
	t3 := det.RenderTableIII()
	if strings.Count(t3, "\n") < 18 {
		t.Errorf("Table III should list 18 confirmed apps:\n%s", t3)
	}
	t4 := det.RenderTableIV()
	for _, want := range []string{"mgtv-sim", "huya-sim", "adult TURN relays: 2", "WebRTC tracking: 3", "untriggered: 42"} {
		if !strings.Contains(t4, want) {
			t.Errorf("Table IV missing %q:\n%s", want, t4)
		}
	}
}

// tableVWant is Table V as the seed-42 report prints it.
const tableVWant = `Table V: Security and privacy risks of PDN services
Risk                     peer5          streamroot     viblast        mango-private 
Peer Authentication
  cross-domain attack    11/36          0/1            0/3            vulnerable    
  domain-spoofing        vulnerable     vulnerable     vulnerable     n/a           
Content Integrity
  direct pollution       safe           safe           safe           safe          
  segment pollution      vulnerable     vulnerable     vulnerable     vulnerable    
Peer Privacy
  IP leak                vulnerable     vulnerable     vulnerable     vulnerable    
  resource squatting     vulnerable     vulnerable     vulnerable     vulnerable    
`

// TestTableVMatrix runs the §IV-B key probes over the seed-1 corpus
// and renders them beside a literal battery matrix holding the cells
// docs/defense_matrix.md commits for the four services.
func TestTableVMatrix(t *testing.T) {
	risks := []string{battery.RiskCrossDomain, battery.RiskDomainSpoofing, battery.RiskDirectPollution,
		battery.RiskSegmentPollution, battery.RiskIPLeak, battery.RiskResourceSquatting}
	m := battery.Matrix{
		verdictRow("peer5", risks, "vulnerable", "vulnerable", "safe", "vulnerable", "vulnerable", "vulnerable"),
		verdictRow("streamroot", risks, "vulnerable", "vulnerable", "safe", "vulnerable", "vulnerable", "vulnerable"),
		verdictRow("viblast", risks, "safe", "vulnerable", "safe", "vulnerable", "vulnerable", "vulnerable"),
		verdictRow("mango-private", risks, "vulnerable", "n/a", "safe", "vulnerable", "vulnerable", "vulnerable"),
	}
	res, err := RunTableV(testCtx(t), detection(t), m)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Columns) != 3 {
		t.Fatalf("columns %d", len(res.Columns))
	}
	// §IV-B key probe: peer5 11/36, streamroot 0/1, viblast 0/3, 4 expired.
	p5 := res.Columns[0].KeyProbe
	if p5.Vulnerable != 11 || p5.Valid != 36 || p5.Expired != 4 {
		t.Errorf("peer5 key probe %+v, want 11/36 (+4 expired)", p5)
	}
	sr := res.Columns[1].KeyProbe
	if sr.Vulnerable != 0 || sr.Valid != 1 {
		t.Errorf("streamroot key probe %+v, want 0/1", sr)
	}
	vb := res.Columns[2].KeyProbe
	if vb.Vulnerable != 0 || vb.Valid != 3 {
		t.Errorf("viblast key probe %+v, want 0/3", vb)
	}
	if got := res.Render(); got != tableVWant {
		t.Errorf("Table V:\n%s\nwant:\n%s", got, tableVWant)
	}
}

// TestVerdictSectionsNeedTheirCells: a section whose cell the matrix
// lacks fails rather than rendering a default verdict.
func TestVerdictSectionsNeedTheirCells(t *testing.T) {
	ctx := testCtx(t)
	if _, err := RunTableV(ctx, nil, nil); err == nil {
		t.Error("Table V rendered from an empty matrix")
	}
	if _, err := RunIMDefense(ctx, nil); err == nil {
		t.Error("IM defense ran without peer5's segment-pollution cell")
	}
	if _, err := ECDN(nil); err == nil {
		t.Error("eCDN read from an empty matrix")
	}
}

func TestTableVI(t *testing.T) {
	res, err := RunTableVI(testCtx(t), 3<<20)
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + res.Render())
	if len(res.Rows) != 3 {
		t.Fatalf("rows %d", len(res.Rows))
	}
	base, noIM, withIM := res.Rows[0], res.Rows[1], res.Rows[2]
	if base.CPURatio != 1 || base.MemRatio != 1 {
		t.Fatalf("base row %+v", base)
	}
	if noIM.CPURatio < 1.05 || noIM.CPURatio > 1.20 {
		t.Errorf("PDN CPU ratio %.3f outside [1.05,1.20] (paper: 1.11)", noIM.CPURatio)
	}
	if withIM.CPURatio <= noIM.CPURatio || withIM.CPURatio > 1.30 {
		t.Errorf("IM CPU ratio %.3f should exceed %.3f slightly (paper: 1.14)", withIM.CPURatio, noIM.CPURatio)
	}
	if noIM.MemRatio < 1.10 || noIM.MemRatio > 1.35 {
		t.Errorf("PDN mem ratio %.3f outside [1.10,1.35] (paper: 1.21)", noIM.MemRatio)
	}
	if withIM.MemRatio < noIM.MemRatio {
		t.Errorf("IM mem ratio %.3f below no-IM %.3f", withIM.MemRatio, noIM.MemRatio)
	}
	if noIM.Latency <= 0 || withIM.Latency <= noIM.Latency {
		t.Errorf("latency ordering: noIM=%v withIM=%v (paper: 67ms -> 140ms)", noIM.Latency, withIM.Latency)
	}
	if withIM.Latency-noIM.Latency > 500*time.Millisecond {
		t.Errorf("IM latency overhead %v implausibly large", withIM.Latency-noIM.Latency)
	}
	// One SIM window covers many segments; the paper's design pays a
	// round trip for each.
	if withIM.SIMTrips <= 0 || withIM.SIMTrips > 0.25 {
		t.Errorf("IM SIM round trips per P2P segment %.3f outside (0, 0.25]", withIM.SIMTrips)
	}
	if noIM.SIMTrips != 0 {
		t.Errorf("no-IM row made %.3f SIM round trips per P2P segment", noIM.SIMTrips)
	}
	if !strings.Contains(res.Render(), "Latency") {
		t.Error("render missing latency column")
	}
}

func TestFigure4Shape(t *testing.T) {
	res, err := RunFigure4(testCtx(t))
	if err != nil {
		t.Fatal(err)
	}
	// Paper: +15% CPU, +10% memory for PDN peers vs no-peer. Peer B
	// (the downloader) carries the decrypt cost; assert its ratios and
	// the weaker bound for A.
	if res.PeerB.CPURatio < 1.05 || res.PeerB.CPURatio > 1.30 {
		t.Errorf("peer B CPU ratio %.3f outside [1.05,1.30]", res.PeerB.CPURatio)
	}
	if res.PeerB.MemRatio < 1.03 || res.PeerB.MemRatio > 1.30 {
		t.Errorf("peer B mem ratio %.3f outside [1.03,1.30]", res.PeerB.MemRatio)
	}
	if res.PeerA.CPURatio <= 1.0 {
		t.Errorf("peer A CPU ratio %.3f should exceed control", res.PeerA.CPURatio)
	}
	if res.PeerA.UpBytes == 0 || res.PeerB.DownBytes == 0 {
		t.Error("P2P traffic missing from NIC counters")
	}
	if res.NoPeer.UpBytes > res.PeerA.UpBytes/10 {
		t.Errorf("no-peer control should barely upload: %d vs %d", res.NoPeer.UpBytes, res.PeerA.UpBytes)
	}
}

func TestFigure5UploadScaling(t *testing.T) {
	res, err := RunFigure5(testCtx(t), 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 3 {
		t.Fatalf("points %d", len(res.Points))
	}
	// Upload grows with neighbor count...
	for i := 1; i < len(res.Points); i++ {
		if res.Points[i].SeederUpBytes <= res.Points[i-1].SeederUpBytes {
			t.Errorf("upload not increasing: %+v", res.Points)
		}
	}
	// ...reaching roughly 2x the seeder's download at 3 neighbors
	// (paper: "up to 200% of the download traffic with 3 peers").
	last := res.Points[2]
	if last.UploadRatio < 1.5 || last.UploadRatio > 2.5 {
		t.Errorf("upload/download at 3 peers = %.2f, want ≈2.0", last.UploadRatio)
	}
	// CPU roughly flat (within ~10% across 1..3 neighbors).
	if res.Points[2].CPUUnits > res.Points[0].CPUUnits*1.10 {
		t.Errorf("CPU grew %.3fx from 1 to 3 neighbors; paper reports no significant difference",
			res.Points[2].CPUUnits/res.Points[0].CPUUnits)
	}
}

func TestIPLeakWildNumbers(t *testing.T) {
	res, err := RunIPLeakWild(42)
	if err != nil {
		t.Fatal(err)
	}
	if res.Combined.Total != 7740 {
		t.Fatalf("combined harvest %d, want 7740 (7055 + 685)", res.Combined.Total)
	}
	huya := res.Channels[0]
	if huya.Total != 7055 {
		t.Fatalf("huya harvest %d", huya.Total)
	}
	cnShare := float64(huya.ByCountry["CN"]) / float64(huya.Public)
	if cnShare < 0.95 {
		t.Errorf("huya CN share %.3f, paper reports 98%%", cnShare)
	}
	rt := res.Channels[1]
	if rt.Total != 685 {
		t.Fatalf("rtnews harvest %d", rt.Total)
	}
	if rt.TopCountries[0].Country != "US" {
		t.Errorf("rtnews top country %s, want US", rt.TopCountries[0].Country)
	}
	// Bogon split ordered like the paper's 543 private / 33 NAT / 5 reserved.
	c := res.Combined
	if !(c.Private > c.SharedNAT && c.SharedNAT > c.Reserved && c.Bogons > 0) {
		t.Errorf("bogon split %d/%d/%d", c.Private, c.SharedNAT, c.Reserved)
	}
	if c.Bogons < 400 || c.Bogons > 800 {
		t.Errorf("bogons %d, paper reports 581", c.Bogons)
	}
}

func TestGeoMatchMitigation(t *testing.T) {
	res, err := RunGeoMatchMitigation(7)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 2 {
		t.Fatalf("results %d", len(res))
	}
	rt, huya := res[0], res[1]
	// Paper: only 35% of RT News leaks remain for a same-country (US)
	// controlled peer; none of Huya's (98% CN) remain.
	if rt.ShareAfter < 0.25 || rt.ShareAfter > 0.45 {
		t.Errorf("RT News share after geo matching %.3f, want ≈0.35", rt.ShareAfter)
	}
	if huya.ShareAfter > 0.05 {
		t.Errorf("Huya share after geo matching %.3f, want ≈0", huya.ShareAfter)
	}
}

func TestFreeRideBilling(t *testing.T) {
	res, err := RunFreeRideBilling(testCtx(t), 3)
	if err != nil {
		t.Fatal(err)
	}
	if !res.JoinAccepted {
		t.Fatal("free riders should join a Peer5-like service")
	}
	if res.P2PBytes == 0 {
		t.Fatal("no P2P traffic generated")
	}
	if res.VictimUsage < res.P2PBytes {
		t.Errorf("victim metered %d < generated %d", res.VictimUsage, res.P2PBytes)
	}
	if res.VictimCost <= 0 {
		t.Error("victim bill did not increase")
	}
}

func TestTokenSize(t *testing.T) {
	res, err := RunTokenSize()
	if err != nil {
		t.Fatal(err)
	}
	if res.Bytes != 283 {
		t.Fatalf("token size %d, paper reports 283", res.Bytes)
	}
}

func TestIMDefense(t *testing.T) {
	m := battery.Matrix{verdictRow("peer5", []string{battery.RiskSegmentPollution}, "vulnerable")}
	res, err := RunIMDefense(testCtx(t), m)
	if err != nil {
		t.Fatal(err)
	}
	if res.PollutedWithoutDefense != 1 {
		t.Error("pollution should succeed without the defense")
	}
	if res.PollutedWithDefense != 0 {
		t.Error("pollution should fail with IM checking")
	}
}

func TestECDN(t *testing.T) {
	m := battery.Matrix{verdictRow("ecdn", []string{battery.RiskCrossDomain, battery.RiskSegmentPollution}, "safe", "vulnerable")}
	res, err := ECDN(m)
	if err != nil {
		t.Fatal(err)
	}
	want := "§VI Microsoft eCDN: free riding = false (tenant ID not public), segment pollution = true\n"
	if got := res.Render(); got != want {
		t.Errorf("eCDN: %q, want %q", got, want)
	}
}

func TestDefenseCostComparison(t *testing.T) {
	res, err := RunDefenseCost(testCtx(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("rows %d", len(res.Rows))
	}
	none, hash, im := res.Rows[0], res.Rows[1], res.Rows[2]
	if none.PollutedSegments == 0 {
		t.Error("undefended deployment should admit pollution")
	}
	if hash.PollutedSegments != 0 || im.PollutedSegments != 0 {
		t.Errorf("both defenses should block pollution: hash=%d im=%d", hash.PollutedSegments, im.PollutedSegments)
	}
	// The hash manifest costs CDN bytes on every viewer session;
	// peer-assisted IM costs arbitration fetches only when a conflict
	// actually occurs — here the malicious peer self-reports its
	// poisoned IMs, so the cost is bounded by the number of attacked
	// segments (2), not by the viewer count.
	if hash.DefenseCDNBytes == 0 {
		t.Error("hash manifest should carry a CDN cost")
	}
	// Its cost is the hashes.json body the CDN serves for the video.
	origin := cdn.New()
	video := analyzer.SmallVideo("bbb", 6, 16<<10)
	origin.Register(video)
	rec := httptest.NewRecorder()
	origin.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, cdn.HashesURL("", video.ID, "360p"), nil))
	if rec.Code != http.StatusOK || hash.DefenseCDNBytes != int64(rec.Body.Len()) {
		t.Errorf("hash manifest cost %d B, want the %d B hashes.json body (status %d)", hash.DefenseCDNBytes, rec.Body.Len(), rec.Code)
	}
	if im.DefenseCDNBytes > 2*int64(16<<10) {
		t.Errorf("peer-assisted IM arbitration cost %d exceeds the attacked segments", im.DefenseCDNBytes)
	}
	if !strings.Contains(res.Render(), "hash-manifest") {
		t.Error("render missing strategy rows")
	}
}
