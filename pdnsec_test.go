package pdnsec_test

import (
	"context"
	"strings"
	"testing"
	"time"

	"github.com/stealthy-peers/pdnsec"
)

func TestFacadeProfiles(t *testing.T) {
	if len(pdnsec.PublicProfiles()) != 3 {
		t.Fatal("expected three public profiles")
	}
	if len(pdnsec.AllProfiles()) != 9 {
		t.Fatal("expected nine profiles")
	}
	if pdnsec.Peer5().Name != "peer5" || pdnsec.ECDN().Name != "ecdn" {
		t.Fatal("profile constructors broken")
	}
	if len(pdnsec.AllRisks()) != 9 {
		t.Fatal("expected nine risks")
	}
}

func TestFacadeAnalyzeRisk(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	v, err := pdnsec.AnalyzeRisk(ctx, pdnsec.Peer5(), "cross-domain")
	if err != nil {
		t.Fatal(err)
	}
	if !v.Vulnerable {
		t.Fatalf("peer5 cross-domain should be vulnerable: %+v", v)
	}
}

func TestFacadeDetectCustomers(t *testing.T) {
	det, err := pdnsec.DetectCustomers(context.Background(), 1, 50, 20)
	if err != nil {
		t.Fatal(err)
	}
	if det.Report.PotentialSites["peer5"] != 60 {
		t.Fatalf("detection report %+v", det.Report.PotentialSites)
	}
	if !strings.Contains(det.RenderTableI(), "17/134") {
		t.Fatal("Table I render broken through the facade")
	}

	// The parallel facade must reproduce the sequential tables.
	par, err := pdnsec.DetectCustomersParallel(context.Background(), 1, 50, 20, pdnsec.DetectOptions{Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	if par.RenderTableI() != det.RenderTableI() {
		t.Fatal("parallel facade diverges from sequential Table I")
	}
}

func TestFacadeTestbedLifecycle(t *testing.T) {
	tb, err := pdnsec.NewTestbed(context.Background(), pdnsec.TestbedConfig{Profile: pdnsec.Streamroot()})
	if err != nil {
		t.Fatal(err)
	}
	defer tb.Close()
	host, err := tb.NewViewerHost("FR")
	if err != nil {
		t.Fatal(err)
	}
	st, err := tb.RunViewer(context.Background(), tb.ViewerConfig(host, 1))
	if err != nil {
		t.Fatal(err)
	}
	if st.SegmentsPlayed == 0 {
		t.Fatalf("viewer played nothing: %+v", st)
	}
}
