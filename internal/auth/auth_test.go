package auth

import (
	"testing"
	"testing/quick"
	"time"
)

func TestIssueAndAuthenticateNoAllowlist(t *testing.T) {
	r := NewRegistry(PlanPerTraffic)
	key := r.Issue("example.com", nil)
	// No allowlist: any origin passes — the Peer5/Streamroot default and
	// the cross-domain attack's precondition.
	cust, err := r.Authenticate(key, "https://attacker.evil")
	if err != nil || cust != "example.com" {
		t.Fatalf("Authenticate = %q, %v", cust, err)
	}
}

func TestAllowlistBlocksCrossDomain(t *testing.T) {
	r := NewRegistry(PlanPerTraffic)
	key := r.Issue("example.com", []string{"example.com"})
	if _, err := r.Authenticate(key, "https://attacker.evil"); err != ErrOriginDenied {
		t.Fatalf("err = %v, want ErrOriginDenied", err)
	}
	// ...but a spoofed Origin header sails through: the server can only
	// check what the client claims.
	cust, err := r.Authenticate(key, "https://example.com")
	if err != nil || cust != "example.com" {
		t.Fatalf("spoofed origin: %q, %v", cust, err)
	}
}

func TestAllowlistSubdomains(t *testing.T) {
	r := NewRegistry(PlanPerTraffic)
	key := r.Issue("example.com", []string{"example.com"})
	for _, origin := range []string{"https://www.example.com", "http://video.example.com:8080", "example.com", "www.example.com/player"} {
		if _, err := r.Authenticate(key, origin); err != nil {
			t.Errorf("origin %q should pass: %v", origin, err)
		}
	}
	for _, origin := range []string{"https://notexample.com", "https://example.com.evil.net", "https://evil.net"} {
		if _, err := r.Authenticate(key, origin); err != ErrOriginDenied {
			t.Errorf("origin %q should be denied, got %v", origin, err)
		}
	}
}

func TestUnknownAndExpiredKeys(t *testing.T) {
	r := NewRegistry(PlanPerTraffic)
	if _, err := r.Authenticate("nope", "x"); err != ErrUnknownKey {
		t.Fatalf("err = %v", err)
	}
	r.AddKey(Key{Value: "old", Customer: "c", Expired: true})
	if _, err := r.Authenticate("old", "x"); err != ErrExpiredKey {
		t.Fatalf("err = %v", err)
	}
}

func TestSetAllowlist(t *testing.T) {
	r := NewRegistry(PlanPerTraffic)
	key := r.Issue("c", nil)
	if err := r.SetAllowlist(key, []string{"c.com"}); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Authenticate(key, "https://other.com"); err != ErrOriginDenied {
		t.Fatalf("allowlist not applied: %v", err)
	}
	if err := r.SetAllowlist("missing", nil); err != ErrUnknownKey {
		t.Fatalf("err = %v", err)
	}
}

func TestKeyCopyIsolated(t *testing.T) {
	r := NewRegistry(PlanPerTraffic)
	key := r.Issue("c", []string{"a.com"})
	k, ok := r.Key(key)
	if !ok {
		t.Fatal("key not found")
	}
	k.Allowlist[0] = "evil.com"
	if _, err := r.Authenticate(key, "https://evil.com"); err == nil {
		t.Fatal("mutating the returned copy must not affect the registry")
	}
}

func TestBillingPerTraffic(t *testing.T) {
	r := NewRegistry(PlanPerTraffic)
	r.Issue("victim.com", nil)
	// Paper: Peer5 charges $500 per 50TB => $0.01/GB.
	r.RecordP2P("victim.com", 50_000_000_000_000) // 50 TB
	cost := r.Cost("victim.com")
	if cost < 499 || cost > 501 {
		t.Fatalf("50TB should cost ~$500, got $%.2f", cost)
	}
}

func TestBillingPerViewerHour(t *testing.T) {
	r := NewRegistry(PlanPerViewerHour)
	r.RecordViewerTime("victim.com", 100*time.Hour)
	if cost := r.Cost("victim.com"); cost != 1.0 {
		t.Fatalf("100 viewer-hours at $0.01 = $1, got %v", cost)
	}
}

func TestUsageAccumulates(t *testing.T) {
	r := NewRegistry(PlanPerTraffic)
	r.RecordJoin("c")
	r.RecordJoin("c")
	r.RecordP2P("c", 100)
	r.RecordCDN("c", 200)
	u := r.Usage("c")
	if u.Joins != 2 || u.P2PBytes != 100 || u.CDNBytes != 200 {
		t.Fatalf("usage %+v", u)
	}
	if u2 := r.Usage("nobody"); u2 != (Usage{}) {
		t.Fatalf("unknown customer usage %+v", u2)
	}
}

func TestPlanString(t *testing.T) {
	if PlanPerTraffic.String() != "per-traffic" || PlanPerViewerHour.String() != "per-viewer-hour" {
		t.Fatal("plan names")
	}
}

// Property: issued keys are unique and always authenticate for their
// own customer with no allowlist.
func TestQuickIssuedKeysAuthenticate(t *testing.T) {
	r := NewRegistry(PlanPerTraffic)
	seen := make(map[string]bool)
	f := func(customer string) bool {
		key := r.Issue(customer, nil)
		if seen[key] {
			return false
		}
		seen[key] = true
		got, err := r.Authenticate(key, "anything")
		return err == nil && got == customer
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
