// Package auth implements PDN customer authentication and usage
// metering: static API keys with optional domain allowlists (the
// mechanism all three public providers in the paper use) and the
// billing meters that make the paper's free-riding attack economically
// meaningful. Token-style credentials — private providers' session
// tokens and the §V-A JWT — are defense.TokenAuthority's.
//
// The paper's core finding in §IV-B is that a *persistent, publicly
// visible* API key is the only credential gating PDN use, and that the
// secondary defense — a domain allowlist checked against the HTTP
// Origin/Referer headers — trusts client-reported values and is
// therefore spoofable. Both properties are reproduced deliberately:
// Registry.Authenticate checks exactly what the paper's targets check.
package auth

import (
	"crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"strings"
	"sync"
	"time"
)

// Errors returned by authentication.
var (
	ErrUnknownKey   = errors.New("auth: unknown API key")
	ErrExpiredKey   = errors.New("auth: expired API key")
	ErrOriginDenied = errors.New("auth: origin not in domain allowlist")
)

// Plan is a provider's pricing model.
type Plan int

// Pricing models observed by the paper: Peer5 and Streamroot charge per
// P2P traffic volume; Viblast charges per concurrent-viewer hour.
const (
	PlanPerTraffic Plan = iota + 1
	PlanPerViewerHour
)

// String names the plan.
func (p Plan) String() string {
	switch p {
	case PlanPerTraffic:
		return "per-traffic"
	case PlanPerViewerHour:
		return "per-viewer-hour"
	default:
		return fmt.Sprintf("Plan(%d)", int(p))
	}
}

// Key is one customer's API key record.
type Key struct {
	// Value is the key string embedded in the customer's pages/apps —
	// and therefore visible to any attacker, the paper's root cause.
	Value string
	// Customer is the owning PDN customer (e.g. a website domain).
	Customer string
	// Allowlist, when non-empty, restricts the Origin domains accepted
	// with this key. Empty means any origin (Peer5/Streamroot default).
	Allowlist []string
	// Expired marks keys that no longer validate (4 of the 44 keys the
	// paper extracted were expired).
	Expired bool
}

// Usage accumulates billable activity for one customer.
type Usage struct {
	P2PBytes      int64         `json:"p2p_bytes"`
	CDNBytes      int64         `json:"cdn_bytes"`
	ViewerSeconds time.Duration `json:"viewer_seconds"`
	Joins         int           `json:"joins"`
}

// Registry stores API keys and usage meters. Safe for concurrent use.
type Registry struct {
	plan Plan
	// ratePerGB is the price per GB of P2P traffic for PlanPerTraffic
	// ($500/50TB for Peer5 ≈ $0.01/GB).
	ratePerGB float64
	// ratePerViewerHour is the price per concurrent viewer hour for
	// PlanPerViewerHour ($0.01 for Viblast).
	ratePerViewerHour float64

	mu    sync.Mutex
	keys  map[string]*Key
	usage map[string]*Usage
}

// NewRegistry creates an empty key registry with the given pricing.
func NewRegistry(plan Plan) *Registry {
	return &Registry{
		plan:              plan,
		ratePerGB:         0.01,
		ratePerViewerHour: 0.01,
		keys:              make(map[string]*Key),
		usage:             make(map[string]*Usage),
	}
}

// Plan returns the registry's pricing model.
func (r *Registry) Plan() Plan { return r.plan }

// Issue registers a new API key for a customer and returns its value.
// The allowlist may be nil (no origin restriction).
func (r *Registry) Issue(customer string, allowlist []string) string {
	var raw [16]byte
	if _, err := rand.Read(raw[:]); err != nil {
		panic(fmt.Sprintf("auth: rand: %v", err))
	}
	value := hex.EncodeToString(raw[:])
	r.mu.Lock()
	defer r.mu.Unlock()
	r.keys[value] = &Key{Value: value, Customer: customer, Allowlist: append([]string(nil), allowlist...)}
	return value
}

// AddKey registers a fully-specified key (for corpus-driven tests that
// model specific keys extracted from customer pages).
func (r *Registry) AddKey(k Key) {
	r.mu.Lock()
	defer r.mu.Unlock()
	cp := k
	cp.Allowlist = append([]string(nil), k.Allowlist...)
	r.keys[k.Value] = &cp
}

// SetAllowlist replaces a key's domain allowlist.
func (r *Registry) SetAllowlist(value string, domains []string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	k, ok := r.keys[value]
	if !ok {
		return ErrUnknownKey
	}
	k.Allowlist = append([]string(nil), domains...)
	return nil
}

// Authenticate validates an API key against a client-reported origin,
// returning the owning customer. It reproduces the deployed mechanism:
// the origin is whatever the client claimed (HTTP Origin header), so a
// spoofed header defeats the allowlist — the paper's domain-spoofing
// attack.
func (r *Registry) Authenticate(keyValue, origin string) (string, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	k, ok := r.keys[keyValue]
	if !ok {
		return "", ErrUnknownKey
	}
	if k.Expired {
		return "", ErrExpiredKey
	}
	if len(k.Allowlist) > 0 && !originAllowed(origin, k.Allowlist) {
		return "", ErrOriginDenied
	}
	return k.Customer, nil
}

// originAllowed matches an origin like "https://www.example.com" or a
// bare domain against allowlisted domains (exact or subdomain match).
func originAllowed(origin string, allow []string) bool {
	host := origin
	if i := strings.Index(host, "://"); i >= 0 {
		host = host[i+3:]
	}
	if i := strings.IndexByte(host, '/'); i >= 0 {
		host = host[:i]
	}
	if i := strings.IndexByte(host, ':'); i >= 0 {
		host = host[:i]
	}
	host = strings.ToLower(host)
	for _, d := range allow {
		d = strings.ToLower(d)
		if host == d || strings.HasSuffix(host, "."+d) {
			return true
		}
	}
	return false
}

// Key returns a copy of the key record, for inspection in tests.
func (r *Registry) Key(value string) (Key, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	k, ok := r.keys[value]
	if !ok {
		return Key{}, false
	}
	cp := *k
	cp.Allowlist = append([]string(nil), k.Allowlist...)
	return cp, true
}

// RecordJoin meters one viewer join for the customer.
func (r *Registry) RecordJoin(customer string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.usageLocked(customer).Joins++
}

// RecordP2P meters P2P traffic attributed to the customer (as reported
// by SDK stats messages — which is why attacker-generated traffic bills
// the victim).
func (r *Registry) RecordP2P(customer string, bytes int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.usageLocked(customer).P2PBytes += bytes
}

// RecordCDN meters CDN fallback traffic for the customer.
func (r *Registry) RecordCDN(customer string, bytes int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.usageLocked(customer).CDNBytes += bytes
}

// RecordViewerTime meters concurrent-viewer time for the customer.
func (r *Registry) RecordViewerTime(customer string, d time.Duration) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.usageLocked(customer).ViewerSeconds += d
}

func (r *Registry) usageLocked(customer string) *Usage {
	u, ok := r.usage[customer]
	if !ok {
		u = &Usage{}
		r.usage[customer] = u
	}
	return u
}

// Usage returns a copy of the customer's meters.
func (r *Registry) Usage(customer string) Usage {
	r.mu.Lock()
	defer r.mu.Unlock()
	u, ok := r.usage[customer]
	if !ok {
		return Usage{}
	}
	return *u
}

// Cost computes the customer's bill in dollars under the registry plan.
func (r *Registry) Cost(customer string) float64 {
	u := r.Usage(customer)
	r.mu.Lock()
	defer r.mu.Unlock()
	switch r.plan {
	case PlanPerTraffic:
		return float64(u.P2PBytes) / 1e9 * r.ratePerGB
	case PlanPerViewerHour:
		return u.ViewerSeconds.Hours() * r.ratePerViewerHour
	default:
		return 0
	}
}
