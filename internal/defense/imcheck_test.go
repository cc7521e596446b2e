package defense_test

import (
	"crypto/ed25519"
	"encoding/hex"
	"errors"
	"fmt"
	"slices"
	"sync"
	"testing"

	"github.com/stealthy-peers/pdnsec/internal/defense"
	"github.com/stealthy-peers/pdnsec/internal/media"
	"github.com/stealthy-peers/pdnsec/internal/secure"
)

func testKey(i int) media.SegmentKey {
	return media.SegmentKey{Video: "bbb", Rendition: "360p", Index: i}
}

func vid() *media.Video {
	return &media.Video{
		ID:              "bbb",
		Renditions:      []media.Rendition{{Name: "360p", Bandwidth: 800, SegmentBytes: 1024}},
		Segments:        8,
		SegmentDuration: 10,
	}
}

// authentic is the ground-truth IM hash of one of vid()'s segments.
func authentic(t *testing.T, v *media.Video, key media.SegmentKey) string {
	t.Helper()
	data, err := v.SegmentData(key.Rendition, key.Index)
	if err != nil {
		t.Fatal(err)
	}
	return media.IMHash(key, data)
}

// newPanel returns a k-reporter checker whose CDN fetch serves v.
func newPanel(t *testing.T, v *media.Video, k int) *defense.IMChecker {
	t.Helper()
	c, err := defense.NewIMChecker(defense.IMConfig{
		Reporters: k,
		FetchCDN: func(key media.SegmentKey) ([]byte, error) {
			return v.SegmentData(key.Rendition, key.Index)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// trustSources are the two ways the one integrity service is built. The
// tests ranging over it pin what both must do; what differs is data:
// how many agreeing reports a SIM waits for, whether a contradiction can
// need arbitrating, and whether a manifest key is advertised.
var trustSources = []struct {
	name string
	// reporters is how many agreeing reports establish a SIM.
	reporters int
	// conflicts is what Stats counts after one in-panel liar: a panel
	// arbitrates it through the CDN, an authority already knows.
	conflicts int
	build     func(t *testing.T, v *media.Video) *defense.IMChecker
}{
	{"panel", 2, 1, func(t *testing.T, v *media.Video) *defense.IMChecker { return newPanel(t, v, 2) }},
	{"authority", 0, 0, func(t *testing.T, v *media.Video) *defense.IMChecker {
		c, err := secure.NewManifestService(v)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}},
}

// establish files the agreeing reports a SIM for key still waits for.
func establish(t *testing.T, c *defense.IMChecker, reporters int, key media.SegmentKey, hash string) {
	t.Helper()
	for i := 0; i < reporters; i++ {
		if err := c.Report(fmt.Sprintf("honest%d", i), key, hash); err != nil {
			t.Fatal(err)
		}
	}
	if got, _, ok := c.SIM(key); !ok || got != hash {
		t.Fatalf("SIM after %d agreeing reports = %q %v, want %q", reporters, got, ok, hash)
	}
}

func TestSIMAvailability(t *testing.T) {
	for _, src := range trustSources {
		t.Run(src.name, func(t *testing.T) {
			v := vid()
			c := src.build(t, v)
			key := testKey(0)
			h := authentic(t, v, key)

			for i := 0; i < src.reporters; i++ {
				if _, _, ok := c.SIM(key); ok {
					t.Fatalf("SIM exists after %d of %d reports", i, src.reporters)
				}
				if err := c.Report(fmt.Sprintf("p%d", i), key, h); err != nil {
					t.Fatal(err)
				}
			}
			hash, sig, ok := c.SIM(key)
			if !ok || hash != h {
				t.Fatalf("SIM = %q %v, want the ground-truth IM hash", hash, ok)
			}
			for _, absent := range []media.SegmentKey{
				{Video: "bbb", Rendition: "360p", Index: 99},
				{Video: "other", Rendition: "360p", Index: 0},
			} {
				if _, _, ok := c.SIM(absent); ok {
					t.Errorf("SIM produced for %v, which nobody vouched for", absent)
				}
			}

			if !defense.VerifySIM(c.PublicKey(), key, hash, sig) {
				t.Fatal("SIM signature invalid")
			}
			if defense.VerifySIM(c.PublicKey(), testKey(1), hash, sig) {
				t.Fatal("SIM signature must bind the segment key (replay defense)")
			}
			if defense.VerifySIM(c.PublicKey(), key, hash, sig[:len(sig)-2]) {
				t.Error("truncated signature verified")
			}

			// Only an authority advertises a manifest key: stamped into the
			// policy it makes viewers demand a SIM for CDN segments too.
			advertised := c.ManifestPublicKeyHex()
			if src.reporters > 0 {
				if advertised != "" {
					t.Fatalf("panel advertises manifest key %q", advertised)
				}
			} else {
				raw, err := hex.DecodeString(advertised)
				if err != nil || len(raw) != ed25519.PublicKeySize {
					t.Fatalf("advertised manifest key %q: %v", advertised, err)
				}
				if !secure.VerifyManifest(ed25519.PublicKey(raw), key, hash, sig) {
					t.Error("manifest signature does not verify under the advertised key")
				}
			}

			if conflicts, fetches, banned := c.Stats(); conflicts != 0 || fetches != 0 || banned != 0 {
				t.Fatalf("stats %d %d %d after honest reports only", conflicts, fetches, banned)
			}
		})
	}
}

func TestConflictArbitrationBlacklistsLiar(t *testing.T) {
	for _, src := range trustSources {
		t.Run(src.name, func(t *testing.T) {
			v := vid()
			c := src.build(t, v)
			key := testKey(2)
			h := authentic(t, v, key)

			if err := c.Report("honest", key, h); err != nil {
				t.Fatal(err)
			}
			// A panel's liar completes it with a fake IM → conflict → CDN
			// arbitration → liar banned. An authority needs no arbitration.
			if err := c.Report("liar", key, "deadbeef"); !errors.Is(err, defense.ErrPeerBlacklisted) {
				t.Fatalf("liar's report: err = %v", err)
			}
			if hash, _, ok := c.SIM(key); !ok || hash != h {
				t.Fatal("the authentic IM should be established")
			}
			if !c.Blacklisted("liar") || c.Blacklisted("honest") {
				t.Fatal("exactly the liar should be banned")
			}
			conflicts, fetches, banned := c.Stats()
			if conflicts != src.conflicts || fetches != src.conflicts || banned != 1 {
				t.Fatalf("stats %d %d %d, want %d %d 1", conflicts, fetches, banned, src.conflicts, src.conflicts)
			}
		})
	}
}

func TestLateContradictionBanned(t *testing.T) {
	for _, src := range trustSources {
		t.Run(src.name, func(t *testing.T) {
			v := vid()
			c := src.build(t, v)
			key := testKey(4)
			h := authentic(t, v, key)
			establish(t, c, src.reporters, key, h)
			// Established; a later contradicting report is an immediate ban.
			if err := c.Report("late-liar", key, "bogus"); !errors.Is(err, defense.ErrPeerBlacklisted) {
				t.Fatalf("err = %v", err)
			}
			// A later agreeing report is fine.
			if err := c.Report("late-honest", key, h); err != nil {
				t.Fatal(err)
			}
			if !c.Blacklisted("late-liar") || c.Blacklisted("late-honest") {
				t.Error("blacklist state wrong after conflicting late reports")
			}
		})
	}
}

func TestBlacklistedPeerRejected(t *testing.T) {
	for _, src := range trustSources {
		t.Run(src.name, func(t *testing.T) {
			v := vid()
			c := src.build(t, v)
			key := testKey(5)
			establish(t, c, src.reporters, key, authentic(t, v, key))
			if err := c.Report("liar", key, "bogus"); !errors.Is(err, defense.ErrPeerBlacklisted) {
				t.Fatalf("err = %v", err)
			}
			// The banned peer can no longer report anything.
			other := testKey(6)
			if err := c.Report("liar", other, authentic(t, v, other)); !errors.Is(err, defense.ErrPeerBlacklisted) {
				t.Fatalf("err = %v", err)
			}
		})
	}
}

// TestBlacklistedReporterCostsNoRead: a banned peer's report is refused
// before the authority reads anything, so naming a key nobody has asked
// about makes the origin fetch, hash and sign nothing.
func TestBlacklistedReporterCostsNoRead(t *testing.T) {
	v := vid()
	var mu sync.Mutex
	reads := make(map[media.SegmentKey]int)
	c, err := defense.NewIMAuthority(func(key media.SegmentKey) ([]byte, error) {
		mu.Lock()
		reads[key]++
		mu.Unlock()
		return v.SegmentData(key.Rendition, key.Index)
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Report("liar", testKey(0), "bogus"); !errors.Is(err, defense.ErrPeerBlacklisted) {
		t.Fatalf("contradicting report: err = %v", err)
	}
	cold := testKey(6)
	if err := c.Report("liar", cold, authentic(t, v, cold)); !errors.Is(err, defense.ErrPeerBlacklisted) {
		t.Fatalf("banned peer's report on a cold key: err = %v", err)
	}
	mu.Lock()
	defer mu.Unlock()
	if reads[cold] != 0 {
		t.Fatalf("a banned peer's report made the authority read %v %d times", cold, reads[cold])
	}
}

// TestAuthoritySignsOncePerKey: the authority fetches and hashes outside
// its lock, so concurrent first askers race to establish; every one of
// them must still be handed the same SIM.
func TestAuthoritySignsOncePerKey(t *testing.T) {
	v := vid()
	c, err := secure.NewManifestService(v)
	if err != nil {
		t.Fatal(err)
	}
	key := testKey(1)
	h := authentic(t, v, key)
	const askers = 8
	sigs := make([]string, askers)
	var wg sync.WaitGroup
	for i := 0; i < askers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if err := c.Report(fmt.Sprintf("p%d", i), key, h); err != nil {
				t.Error(err)
			}
			_, sigs[i], _ = c.SIM(key)
		}(i)
	}
	wg.Wait()
	for i, sig := range sigs {
		if sig == "" || sig != sigs[0] {
			t.Fatalf("asker %d got signature %q, asker 0 %q", i, sig, sigs[0])
		}
	}
}

// TestSIMWindow pins what a window answer covers, from either trust
// source: the asked key established as SIM would establish it, then only
// what is established already, contiguously, under one signature that
// binds the start key and the list.
func TestSIMWindow(t *testing.T) {
	for _, src := range trustSources {
		t.Run(src.name, func(t *testing.T) {
			v := vid()
			c := src.build(t, v)
			want := make([]string, v.Segments)
			for i := range want {
				want[i] = authentic(t, v, testKey(i))
			}
			// Segments 0, 1, 2 and 4 are established; 3 is the gap.
			for _, i := range []int{0, 1, 2, 4} {
				establish(t, c, src.reporters, testKey(i), want[i])
			}

			hashes, sig, ok := c.SIMWindow(testKey(0), 16)
			if !ok || !slices.Equal(hashes, want[:3]) {
				t.Fatalf("window at 0 = %v %v, want the run %v that stops at the first unestablished key", hashes, ok, want[:3])
			}
			if !media.VerifySIMWindow(c.PublicKey(), testKey(0), hashes, sig) {
				t.Fatal("window signature does not verify over (start, list)")
			}
			if media.VerifySIMWindow(c.PublicKey(), testKey(1), hashes, sig) ||
				media.VerifySIMWindow(c.PublicKey(), testKey(0), hashes[:2], sig) ||
				defense.VerifySIM(c.PublicKey(), testKey(0), hashes[0], sig) {
				t.Fatal("window signature verifies for a shifted start, a truncated list or as a single SIM")
			}
			if hashes, _, ok := c.SIMWindow(testKey(1), 2); !ok || !slices.Equal(hashes, want[1:3]) {
				t.Fatalf("window at 1, count 2 = %v %v, want %v", hashes, ok, want[1:3])
			}
			if hashes, _, ok := c.SIMWindow(testKey(4), 0); !ok || len(hashes) != 1 || hashes[0] != want[4] {
				t.Fatalf("window at 4, count 0 = %v %v, want the asked key alone", hashes, ok)
			}

			// The asked key is the only one ever established on demand: an
			// authority signs its ground truth for 3 and the run then joins
			// up with 4 but does not reach on into 5; a panel has no SIM
			// for 3 to give.
			hashes, sig, ok = c.SIMWindow(testKey(3), 16)
			if src.reporters > 0 {
				if ok || hashes != nil {
					t.Fatalf("panel produced window %v for a key nobody reported", hashes)
				}
			} else {
				if !ok || !slices.Equal(hashes, want[3:5]) {
					t.Fatalf("window at 3 = %v %v, want %v: the asked key on demand, then the established run", hashes, ok, want[3:5])
				}
				if !media.VerifySIMWindow(c.PublicKey(), testKey(3), hashes, sig) {
					t.Fatal("on-demand window signature does not verify")
				}
				if _, _, ok := c.SIMWindow(testKey(5), 16); !ok {
					t.Fatal("authority refused a segment it originates")
				}
			}
			for _, absent := range []media.SegmentKey{
				{Video: "bbb", Rendition: "360p", Index: 99},
				{Video: "other", Rendition: "360p", Index: 0},
			} {
				if hashes, _, ok := c.SIMWindow(absent, 16); ok || hashes != nil {
					t.Errorf("window %v produced for %v, which nobody vouched for", hashes, absent)
				}
			}

			// The server-side cap holds whatever is asked for.
			long := &media.Video{ID: "bbb", Renditions: v.Renditions, Segments: 2 * defense.MaxSIMWindow, SegmentDuration: 10}
			lc := src.build(t, long)
			for i := 0; i < long.Segments; i++ {
				establish(t, lc, src.reporters, testKey(i), authentic(t, long, testKey(i)))
			}
			if hashes, _, ok := lc.SIMWindow(testKey(0), 1<<30); !ok || len(hashes) != defense.MaxSIMWindow {
				t.Fatalf("window of %d hashes for an unbounded ask, want the cap %d", len(hashes), defense.MaxSIMWindow)
			}
		})
	}
}

func TestAllMaliciousPanelWins(t *testing.T) {
	// The paper is explicit: the attack succeeds only when all randomly
	// selected peers are malicious — unanimous lies establish a fake SIM.
	// (An authority has no panel to stuff.)
	c := newPanel(t, vid(), 3)
	key := testKey(3)
	fake := "0000deadbeef"
	for i := 0; i < 3; i++ {
		if err := c.Report(fmt.Sprintf("evil%d", i), key, fake); err != nil {
			t.Fatal(err)
		}
	}
	hash, _, ok := c.SIM(key)
	if !ok || hash != fake {
		t.Fatal("unanimous malicious panel should win (the defense's stated limit)")
	}
}

func TestDuplicateReporterDoesNotFillPanel(t *testing.T) {
	v := vid()
	c := newPanel(t, v, 3)
	key := testKey(7)
	h := authentic(t, v, key)
	for i := 0; i < 5; i++ {
		c.Report("same-peer", key, h)
	}
	if _, _, ok := c.SIM(key); ok {
		t.Fatal("one peer reporting repeatedly must not establish a SIM")
	}
}

func TestIMConfigValidation(t *testing.T) {
	if _, err := defense.NewIMChecker(defense.IMConfig{}); err == nil {
		t.Fatal("missing FetchCDN should fail")
	}
	if _, err := defense.NewIMAuthority(nil); err == nil {
		t.Fatal("missing ground truth should fail")
	}
	if _, err := secure.NewManifestService(nil); err == nil {
		t.Fatal("missing video should fail")
	}
	// The default panel is three reporters.
	c := newPanel(t, vid(), 0)
	key := testKey(0)
	for i := 0; i < 3; i++ {
		if _, _, ok := c.SIM(key); ok {
			t.Fatalf("default panel established a SIM after %d reports", i)
		}
		c.Report(fmt.Sprintf("p%d", i), key, "h")
	}
	if _, _, ok := c.SIM(key); !ok {
		t.Fatal("default panel did not establish a SIM after 3 reports")
	}
}
