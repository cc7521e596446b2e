// Package defense implements the paper's three mitigation proposals:
//
//   - §V-A: a disposable, video-binding authentication token (JWT with
//     HMAC-SHA256) that replaces the static API key, with TTL and
//     usage-limit enforcement;
//   - §V-B: peer-assisted integrity checking — randomly-selected peers
//     report integrity metadata (IM) for CDN-fetched segments, the PDN
//     server arbitrates conflicts by re-fetching from the CDN, signs
//     the authentic IM (SIM), and blacklists liars;
//   - §V-C: peer-privacy mitigations — a TURN relay that keeps peer
//     addresses out of each other's sight (geo-constrained matching
//     lives in the signaling server's policy).
package defense

import (
	"crypto/hmac"
	"crypto/sha256"
	"encoding/base64"
	"encoding/json"
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"
	"time"
)

// PDNToken is the paper's Listing 1 token structure: a disposable,
// video-binding credential issued by the PDN customer's server.
type PDNToken struct {
	CustomerID string   `json:"customer_id"`
	PDNPeerID  string   `json:"pdn_peer_id"`
	VideoIDs   []string `json:"video_ids"`
	Timestamp  int64    `json:"timestamp"`
	TTL        int64    `json:"ttl"`
	UsageLimit int      `json:"usage_limit"`
}

// ExampleToken reproduces Listing 1 exactly; §V-A reports its signed
// JWT encoding at 283 bytes.
func ExampleToken() PDNToken {
	return PDNToken{
		CustomerID: "xx.yy",
		PDNPeerID:  "1",
		VideoIDs:   []string{"https://xx.yy/zz.m3u8", "https://xx.yy/hh.m3u8"},
		Timestamp:  1619814238,
		TTL:        60,
		UsageLimit: 1,
	}
}

// JWT errors.
var (
	ErrJWTFormat     = errors.New("defense: malformed JWT")
	ErrJWTSignature  = errors.New("defense: JWT signature mismatch")
	ErrTokenExpired  = errors.New("defense: token expired")
	ErrTokenVideo    = errors.New("defense: token not valid for this video")
	ErrTokenConsumed = errors.New("defense: token usage limit reached")
)

var b64 = base64.RawURLEncoding

// SignJWT encodes claims as an HS256 JSON Web Token.
func SignJWT(claims any, secret []byte) (string, error) {
	header := b64.EncodeToString([]byte(`{"alg":"HS256","typ":"JWT"}`))
	payload, err := json.Marshal(claims)
	if err != nil {
		return "", fmt.Errorf("defense: marshal claims: %w", err)
	}
	signingInput := header + "." + b64.EncodeToString(payload)
	mac := hmac.New(sha256.New, secret)
	mac.Write([]byte(signingInput))
	return signingInput + "." + b64.EncodeToString(mac.Sum(nil)), nil
}

// VerifyJWT checks an HS256 JWT's signature and decodes its claims.
func VerifyJWT(token string, secret []byte, out any) error {
	parts := strings.Split(token, ".")
	if len(parts) != 3 {
		return ErrJWTFormat
	}
	signingInput := parts[0] + "." + parts[1]
	mac := hmac.New(sha256.New, secret)
	mac.Write([]byte(signingInput))
	want := mac.Sum(nil)
	got, err := b64.DecodeString(parts[2])
	if err != nil {
		return ErrJWTFormat
	}
	if !hmac.Equal(want, got) {
		return ErrJWTSignature
	}
	payload, err := b64.DecodeString(parts[1])
	if err != nil {
		return ErrJWTFormat
	}
	if out != nil {
		if err := json.Unmarshal(payload, out); err != nil {
			return fmt.Errorf("defense: decode claims: %w", err)
		}
	}
	return nil
}

// TokenAuthority issues and validates signed session tokens, enforcing
// TTL and usage limits server-side. It is every token-style credential
// in the reproduction: the §V-A replacement for the static API key — a
// stolen token is useless for the attacker's own streams (video binding)
// and goes stale fast (TTL + usage limit) — and the private providers'
// session tokens, whose flaws it writes into the signed claims: a token
// with no VideoIDs is unbound and validates for any stream, as Tencent
// Video's did. Only the secret holder can mint one.
type TokenAuthority struct {
	secret []byte

	mu   sync.Mutex
	uses map[string]tokenUses
	// sweepAt is the uses size past which the next sweep of expired
	// entries runs: twice the size the last sweep left, so the map stays
	// within about twice its live set at amortised O(1) per validation.
	sweepAt int
	now     func() time.Time
}

// tokenUses counts one usage-limited token's validations until it
// expires, after which Validate rejects it before counting.
type tokenUses struct {
	n       int
	expires int64 // Unix seconds
}

// NewTokenAuthority creates an authority with the given HMAC secret.
func NewTokenAuthority(secret []byte) *TokenAuthority {
	return &TokenAuthority{
		secret: append([]byte(nil), secret...),
		uses:   make(map[string]tokenUses),
		now:    time.Now,
	}
}

// SetClock overrides the time source (tests).
func (a *TokenAuthority) SetClock(now func() time.Time) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.now = now
}

// Issue signs a token. Timestamp defaults to now when zero.
func (a *TokenAuthority) Issue(tok PDNToken) (string, error) {
	if tok.Timestamp == 0 {
		a.mu.Lock()
		tok.Timestamp = a.now().Unix()
		a.mu.Unlock()
	}
	return SignJWT(tok, a.secret)
}

// Validate checks a presented JWT for a given video, consuming one use.
// A token with no VideoIDs is unbound: it validates for any video.
func (a *TokenAuthority) Validate(jwt, videoID string) error {
	var tok PDNToken
	if err := VerifyJWT(jwt, a.secret, &tok); err != nil {
		return err
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	now := a.now().Unix()
	expires := tok.Timestamp + tok.TTL
	if now > expires {
		return ErrTokenExpired
	}
	if len(tok.VideoIDs) > 0 && !slices.Contains(tok.VideoIDs, videoID) {
		return ErrTokenVideo
	}
	if tok.UsageLimit > 0 {
		u := a.uses[jwt]
		if u.n >= tok.UsageLimit {
			return ErrTokenConsumed
		}
		a.uses[jwt] = tokenUses{n: u.n + 1, expires: expires}
		if len(a.uses) > a.sweepAt {
			a.sweepLocked(now)
		}
	}
	return nil
}

// sweepLocked drops the use counts of expired tokens, which Validate
// rejects before it reads them, and sets the next sweep threshold.
func (a *TokenAuthority) sweepLocked(now int64) {
	for jwt, u := range a.uses {
		if now > u.expires {
			delete(a.uses, jwt)
		}
	}
	a.sweepAt = 2 * len(a.uses)
}
