package defense

import (
	"fmt"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

var testSecret = []byte("pdnsec-test-secret")

func TestJWTRoundTrip(t *testing.T) {
	tok := ExampleToken()
	jwt, err := SignJWT(tok, testSecret)
	if err != nil {
		t.Fatal(err)
	}
	var got PDNToken
	if err := VerifyJWT(jwt, testSecret, &got); err != nil {
		t.Fatal(err)
	}
	if got.CustomerID != tok.CustomerID || len(got.VideoIDs) != 2 || got.TTL != 60 {
		t.Fatalf("claims %+v", got)
	}
}

func TestJWTExampleTokenSize(t *testing.T) {
	// §V-A: "the example token along with its HMAC-SHA256 signature will
	// result in an encoded JWT of 283 bytes."
	jwt, err := SignJWT(ExampleToken(), testSecret)
	if err != nil {
		t.Fatal(err)
	}
	if len(jwt) != 283 {
		t.Fatalf("encoded JWT is %d bytes, paper reports 283", len(jwt))
	}
}

func TestJWTTamperDetected(t *testing.T) {
	jwt, _ := SignJWT(ExampleToken(), testSecret)
	parts := strings.Split(jwt, ".")
	tampered := parts[0] + "." + parts[1] + "x." + parts[2]
	if err := VerifyJWT(tampered, testSecret, nil); err == nil {
		t.Fatal("tampered payload should fail verification")
	}
	wrongKey := append([]byte(nil), testSecret...)
	wrongKey[0] ^= 0xff
	if err := VerifyJWT(jwt, wrongKey, nil); err != ErrJWTSignature {
		t.Fatalf("wrong key: err = %v", err)
	}
	if err := VerifyJWT("garbage", testSecret, nil); err != ErrJWTFormat {
		t.Fatalf("garbage: err = %v", err)
	}
	if err := VerifyJWT("a.b", testSecret, nil); err != ErrJWTFormat {
		t.Fatalf("two parts: err = %v", err)
	}
}

func TestTokenAuthorityVideoBinding(t *testing.T) {
	a := NewTokenAuthority(testSecret)
	jwt, err := a.Issue(PDNToken{
		CustomerID: "victim.com",
		PDNPeerID:  "p1",
		VideoIDs:   []string{"https://cdn/legit.m3u8"},
		TTL:        60,
		UsageLimit: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Validate(jwt, "https://cdn/legit.m3u8"); err != nil {
		t.Fatal(err)
	}
	// The stolen token is useless for the attacker's own stream — this
	// is the economic kill-switch for free riding.
	if err := a.Validate(jwt, "https://attacker/own.m3u8"); err != ErrTokenVideo {
		t.Fatalf("err = %v, want ErrTokenVideo", err)
	}
	if err := a.Validate("bogus", "https://cdn/legit.m3u8"); err != ErrJWTFormat {
		t.Fatalf("bogus token: err = %v, want ErrJWTFormat", err)
	}
}

func TestTokenAuthorityUnbound(t *testing.T) {
	// Tencent-style: a token the issuer bound to no video validates for
	// any stream — the free-riding exposure the paper flags — yet is
	// still signed, so only the issuer can mint one.
	a := NewTokenAuthority(testSecret)
	jwt, err := a.Issue(PDNToken{CustomerID: "victim.com", PDNPeerID: "p1", TTL: 60})
	if err != nil {
		t.Fatal(err)
	}
	for _, video := range []string{"https://cdn/legit.m3u8", "https://attacker/own.m3u8", ""} {
		if err := a.Validate(jwt, video); err != nil {
			t.Fatalf("unbound token for %q: %v", video, err)
		}
	}
	forged, _ := SignJWT(PDNToken{TTL: 60, Timestamp: time.Now().Unix()}, []byte("not-the-secret"))
	if err := a.Validate(forged, "https://attacker/own.m3u8"); err != ErrJWTSignature {
		t.Fatalf("forged unbound token: err = %v, want ErrJWTSignature", err)
	}
}

// TestTokenAuthorityUsesBounded: every usage-limited token leaves a use
// count behind, so a long-running validator would grow without bound
// unless expired counts are swept.
func TestTokenAuthorityUsesBounded(t *testing.T) {
	a := NewTokenAuthority(testSecret)
	now := time.Unix(1_700_000_000, 0)
	a.SetClock(func() time.Time { return now })
	// Each round's 10k tokens expire before the next round validates its
	// own: the live set never exceeds one round, and neither may the map
	// grow past twice that.
	const n = 10_000
	for round := 0; round < 3; round++ {
		for i := 0; i < n; i++ {
			jwt, err := a.Issue(PDNToken{PDNPeerID: fmt.Sprintf("r%d-%d", round, i), TTL: 60, UsageLimit: 1})
			if err != nil {
				t.Fatal(err)
			}
			if err := a.Validate(jwt, "v"); err != nil {
				t.Fatal(err)
			}
		}
		if got := len(a.uses); got > 2*n {
			t.Fatalf("round %d: uses holds %d entries for %d live tokens; expired counts are not swept", round, got, n)
		}
		now = now.Add(2 * time.Minute)
	}
}

func TestTokenAuthorityUsageLimit(t *testing.T) {
	a := NewTokenAuthority(testSecret)
	jwt, _ := a.Issue(PDNToken{VideoIDs: []string{"v"}, TTL: 60, UsageLimit: 1})
	if err := a.Validate(jwt, "v"); err != nil {
		t.Fatal(err)
	}
	// Replay: second use is rejected.
	if err := a.Validate(jwt, "v"); err != ErrTokenConsumed {
		t.Fatalf("err = %v, want ErrTokenConsumed", err)
	}
}

func TestTokenAuthorityTTL(t *testing.T) {
	a := NewTokenAuthority(testSecret)
	now := time.Unix(1_700_000_000, 0)
	a.SetClock(func() time.Time { return now })
	jwt, _ := a.Issue(PDNToken{VideoIDs: []string{"v"}, TTL: 60, UsageLimit: 0})
	if err := a.Validate(jwt, "v"); err != nil {
		t.Fatal(err)
	}
	now = now.Add(2 * time.Minute)
	if err := a.Validate(jwt, "v"); err != ErrTokenExpired {
		t.Fatalf("err = %v, want ErrTokenExpired", err)
	}
}

func TestUnlimitedUsage(t *testing.T) {
	a := NewTokenAuthority(testSecret)
	jwt, _ := a.Issue(PDNToken{VideoIDs: []string{"v"}, TTL: 60, UsageLimit: 0})
	for i := 0; i < 5; i++ {
		if err := a.Validate(jwt, "v"); err != nil {
			t.Fatalf("use %d: %v", i, err)
		}
	}
}

// Property: signing/verifying round-trips arbitrary token contents.
func TestQuickJWTRoundTrip(t *testing.T) {
	f := func(customer, peer string, ttl uint16) bool {
		tok := PDNToken{CustomerID: customer, PDNPeerID: peer, TTL: int64(ttl), Timestamp: 1}
		jwt, err := SignJWT(tok, testSecret)
		if err != nil {
			return false
		}
		var got PDNToken
		if err := VerifyJWT(jwt, testSecret, &got); err != nil {
			return false
		}
		return got.CustomerID == customer && got.PDNPeerID == peer && got.TTL == int64(ttl)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
