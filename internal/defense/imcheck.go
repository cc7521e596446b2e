package defense

import (
	"crypto/ed25519"
	"crypto/rand"
	"errors"
	"fmt"
	"sync"

	"github.com/stealthy-peers/pdnsec/internal/media"
	"github.com/stealthy-peers/pdnsec/internal/signal"
)

// ErrPeerBlacklisted is returned to peers that reported falsified IMs.
var ErrPeerBlacklisted = errors.New("defense: peer blacklisted")

// FetchFunc downloads the authentic segment from the CDN; the IM
// checker calls it only to resolve conflicting reports, keeping the
// defense's extra CDN cost proportional to attacker activity.
type FetchFunc func(key media.SegmentKey) ([]byte, error)

// IMConfig parameterizes the checker.
type IMConfig struct {
	// Reporters is the panel size k: a segment's IM is established once
	// k distinct peers report it. The attack succeeds only if all k
	// panelists are malicious (ablation: BenchmarkAblationIMReporters).
	Reporters int
	// FetchCDN resolves conflicts. Required.
	FetchCDN FetchFunc
}

// IMChecker implements signal.IMService: the server side of the §V-B
// peer-assisted integrity-checking defense.
type IMChecker struct {
	cfg     IMConfig
	signPub ed25519.PublicKey
	signKey ed25519.PrivateKey

	mu          sync.Mutex
	pending     map[media.SegmentKey]map[string]string // key -> peerID -> hash
	established map[media.SegmentKey]media.SIM
	blacklist   map[string]bool

	conflicts  int
	cdnFetches int
}

var _ signal.IMService = (*IMChecker)(nil)

// NewIMChecker constructs the checker with a fresh signing key.
func NewIMChecker(cfg IMConfig) (*IMChecker, error) {
	if cfg.FetchCDN == nil {
		return nil, errors.New("defense: IMConfig.FetchCDN is required")
	}
	if cfg.Reporters <= 0 {
		cfg.Reporters = 3
	}
	pub, priv, err := ed25519.GenerateKey(rand.Reader)
	if err != nil {
		return nil, fmt.Errorf("defense: keygen: %w", err)
	}
	return &IMChecker{
		cfg:         cfg,
		signPub:     pub,
		signKey:     priv,
		pending:     make(map[media.SegmentKey]map[string]string),
		established: make(map[media.SegmentKey]media.SIM),
		blacklist:   make(map[string]bool),
	}, nil
}

// PublicKey returns the SIM verification key (distributed to peers via
// the SDK in a real deployment).
func (c *IMChecker) PublicKey() ed25519.PublicKey { return c.signPub }

// VerifySIM checks a SIM signature against the checker's public key.
func VerifySIM(pub ed25519.PublicKey, key media.SegmentKey, hash, sig string) bool {
	return media.VerifySIM(pub, key, hash, sig)
}

// Report records a peer's IM for a CDN-fetched segment (§V-B): the
// first k distinct reporters form the segment's panel. Agreement
// establishes the SIM; disagreement triggers CDN arbitration and
// blacklists every peer that lied.
func (c *IMChecker) Report(peerID string, key media.SegmentKey, hash string) error {
	c.mu.Lock()
	if c.blacklist[peerID] {
		c.mu.Unlock()
		return ErrPeerBlacklisted
	}
	if est, ok := c.established[key]; ok {
		// Late report against an established SIM: liars are caught here
		// too.
		if est.Hash != hash {
			c.blacklist[peerID] = true
			c.mu.Unlock()
			return ErrPeerBlacklisted
		}
		c.mu.Unlock()
		return nil
	}
	panel, ok := c.pending[key]
	if !ok {
		panel = make(map[string]string, c.cfg.Reporters)
		c.pending[key] = panel
	}
	panel[peerID] = hash
	if len(panel) < c.cfg.Reporters {
		c.mu.Unlock()
		return nil
	}
	// Panel complete: check agreement.
	agreed := true
	var first string
	for _, h := range panel {
		if first == "" {
			first = h
		} else if h != first {
			agreed = false
			break
		}
	}
	if agreed {
		c.establishLocked(key, first)
		delete(c.pending, key)
		c.mu.Unlock()
		return nil
	}
	// Conflict: arbitrate via the CDN.
	c.conflicts++
	c.cdnFetches++
	c.mu.Unlock()

	data, err := c.cfg.FetchCDN(key)
	if err != nil {
		return fmt.Errorf("defense: conflict arbitration fetch: %w", err)
	}
	authentic := media.IMHash(key, data)

	c.mu.Lock()
	defer c.mu.Unlock()
	c.establishLocked(key, authentic)
	var callerBanned bool
	for pid, h := range c.pending[key] {
		if h != authentic {
			c.blacklist[pid] = true
			if pid == peerID {
				callerBanned = true
			}
		}
	}
	delete(c.pending, key)
	if callerBanned {
		return ErrPeerBlacklisted
	}
	return nil
}

func (c *IMChecker) establishLocked(key media.SegmentKey, hash string) {
	c.established[key] = media.SignSIM(c.signKey, key, hash)
}

// SIM returns the signed integrity metadata for a segment.
func (c *IMChecker) SIM(key media.SegmentKey) (hash, sig string, ok bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, found := c.established[key]
	if !found {
		return "", "", false
	}
	return e.Hash, e.Sig, true
}

// Blacklisted reports whether a peer has been banned.
func (c *IMChecker) Blacklisted(peerID string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.blacklist[peerID]
}

// Stats reports arbitration counters.
func (c *IMChecker) Stats() (conflicts, cdnFetches, blacklisted int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.conflicts, c.cdnFetches, len(c.blacklist)
}
