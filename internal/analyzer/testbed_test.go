package analyzer

import (
	"io"
	"net/http"
	"testing"
	"time"

	"github.com/stealthy-peers/pdnsec/internal/cdn"
	"github.com/stealthy-peers/pdnsec/internal/media"
	"github.com/stealthy-peers/pdnsec/internal/obs"
	"github.com/stealthy-peers/pdnsec/internal/provider"
)

// TestAuthorityReadsTheOrigin: a secure testbed's authority signs what
// its CDN origin holds, read from the origin's one store, so a segment is
// synthesized once whichever asks first — a viewer's GET or the
// authority — and every SIM is the ground truth's.
func TestAuthorityReadsTheOrigin(t *testing.T) {
	reg := obs.NewRegistry()
	video := SmallVideo("bbb", 4, 16<<10)
	tb, err := NewTestbed(testCtx(t), TestbedConfig{Profile: provider.Secure(), Video: video, Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer tb.Close()
	host, err := tb.NewViewerHost("US")
	if err != nil {
		t.Fatal(err)
	}
	client := &http.Client{Transport: &http.Transport{DialContext: host.Dialer()}, Timeout: 5 * time.Second}
	rendition := video.Renditions[0].Name
	key := func(i int) media.SegmentKey { return media.SegmentKey{Video: video.ID, Rendition: rendition, Index: i} }
	misses := func() int64 { return reg.Counter("cdn_cache_misses_total", "").Value() }
	hits := func() int64 { return reg.Counter("cdn_cache_hits_total", "").Value() }
	get := func(i int) {
		t.Helper()
		resp, err := client.Get(cdn.SegmentURL(tb.CDNBase, video.ID, rendition, i))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if _, err := io.ReadAll(resp.Body); err != nil || resp.StatusCode != 200 {
			t.Fatalf("GET segment %d: %d %v", i, resp.StatusCode, err)
		}
	}
	sim := func(i int) {
		t.Helper()
		if _, _, ok := tb.IM.SIM(key(i)); !ok {
			t.Fatalf("no SIM for segment %d", i)
		}
	}

	get(0)
	served := misses()
	sim(0)
	if got := misses(); got != served {
		t.Fatalf("SIM of a served segment synthesized it again (%d misses, want %d)", got, served)
	}
	sim(1)
	if got := misses(); got != served+1 {
		t.Fatalf("SIM of a cold segment: %d misses, want %d", got, served+1)
	}
	hit := hits()
	get(1)
	if misses() != served+1 || hits() != hit+1 {
		t.Fatalf("GET after the authority read: %d misses %d hits, want %d and %d", misses(), hits(), served+1, hit+1)
	}

	for i := 0; i < video.Segments; i++ {
		data, err := video.SegmentData(rendition, i)
		if err != nil {
			t.Fatal(err)
		}
		if hash, _, ok := tb.IM.SIM(key(i)); !ok || hash != media.IMHash(key(i), data) {
			t.Fatalf("SIM of segment %d = %q %v, want the ground-truth IM hash", i, hash, ok)
		}
	}
}

// TestPanelArbitratesAgainstTheOrigin: a hardened testbed's panel
// resolves a conflict with the bytes its CDN origin holds, read from the
// origin's one store and billed to nobody.
func TestPanelArbitratesAgainstTheOrigin(t *testing.T) {
	reg := obs.NewRegistry()
	tb, err := NewTestbed(testCtx(t), TestbedConfig{Profile: provider.Hardened(), Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer tb.Close()
	key := media.SegmentKey{Video: tb.Video.ID, Rendition: tb.Video.Renditions[0].Name, Index: 2}
	data, err := tb.Video.SegmentData(key.Rendition, key.Index)
	if err != nil {
		t.Fatal(err)
	}
	truth := media.IMHash(key, data)
	if err := tb.IM.Report("honest", key, truth); err != nil {
		t.Fatal(err)
	}
	tb.IM.Report("liar", key, "bogus")
	if hash, _, ok := tb.IM.SIM(key); !ok || hash != truth || !tb.IM.Blacklisted("liar") {
		t.Fatalf("arbitration established %q %v, liar banned %v", hash, ok, tb.IM.Blacklisted("liar"))
	}
	if misses := reg.Counter("cdn_cache_misses_total", "").Value(); misses != 1 || tb.CDN.BytesServed("") != 0 {
		t.Fatalf("arbitration: %d origin syntheses and %d billed bytes, want 1 and 0", misses, tb.CDN.BytesServed(""))
	}
}
