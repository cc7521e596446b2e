package defense

import (
	"crypto/ed25519"
	"crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"sync"

	"github.com/stealthy-peers/pdnsec/internal/media"
	"github.com/stealthy-peers/pdnsec/internal/signal"
)

// ErrPeerBlacklisted is returned to peers that reported falsified IMs.
var ErrPeerBlacklisted = errors.New("defense: peer blacklisted")

// FetchFunc returns the authentic segment. A panel calls it only to
// resolve conflicting reports, keeping the defense's extra CDN cost
// proportional to attacker activity; an authority calls it once per
// segment key it establishes. Deployed over the origin's own store
// (cdn.Server.Segment), both read the bytes the CDN serves rather than
// producing them a second time, and must not modify what it returns.
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
// integrity-checking defense. Its constructor fixes where an established
// SIM comes from: NewIMChecker's panel takes the first k agreeing peer
// reports, arbitrating conflicts through the CDN; NewIMAuthority's
// provider establishes its own ground truth the first time a segment is
// asked or reported about, so the first k reporters have no bootstrap
// window to collude in. After establishment the two are the same code:
// an established SIM is a hash, signed as part of a run each time one is
// answered.
type IMChecker struct {
	cfg       IMConfig
	authority bool // establishes cfg.FetchCDN's ground truth on demand; no panel
	signPub   ed25519.PublicKey
	signKey   ed25519.PrivateKey

	mu          sync.Mutex
	pending     map[media.SegmentKey]map[string]string // key -> peerID -> hash
	established map[media.SegmentKey]string            // key -> IM hash
	blacklist   map[string]bool

	conflicts  int
	cdnFetches int
}

var _ signal.IMService = (*IMChecker)(nil)

// NewIMChecker constructs the k-reporter panel checker with a fresh
// signing key.
func NewIMChecker(cfg IMConfig) (*IMChecker, error) {
	if cfg.Reporters <= 0 {
		cfg.Reporters = 3
	}
	return newIMChecker(cfg, false)
}

// NewIMAuthority constructs the provider-signed service with a fresh
// signing key: truth returns the authentic bytes of every segment the
// provider originates and an error for anything else.
func NewIMAuthority(truth FetchFunc) (*IMChecker, error) {
	return newIMChecker(IMConfig{FetchCDN: truth}, true)
}

func newIMChecker(cfg IMConfig, authority bool) (*IMChecker, error) {
	if cfg.FetchCDN == nil {
		return nil, errors.New("defense: IMConfig.FetchCDN is required")
	}
	pub, priv, err := ed25519.GenerateKey(rand.Reader)
	if err != nil {
		return nil, fmt.Errorf("defense: keygen: %w", err)
	}
	return &IMChecker{
		cfg:         cfg,
		authority:   authority,
		signPub:     pub,
		signKey:     priv,
		pending:     make(map[media.SegmentKey]map[string]string),
		established: make(map[media.SegmentKey]string),
		blacklist:   make(map[string]bool),
	}, nil
}

// PublicKey returns the SIM verification key (distributed to peers via
// the SDK in a real deployment).
func (c *IMChecker) PublicKey() ed25519.PublicKey { return c.signPub }

// ManifestPublicKeyHex is the verification key in the hex form policy
// delivers it to peers, and empty for a panel: in Policy.ManifestPubKey
// it makes viewers demand a SIM for every segment source, CDN included,
// which only an authority can serve.
func (c *IMChecker) ManifestPublicKeyHex() string {
	if !c.authority {
		return ""
	}
	return hex.EncodeToString(c.signPub)
}

// VerifySIM checks the signature of one segment's SIM — a run of one —
// against the checker's public key.
func VerifySIM(pub ed25519.PublicKey, key media.SegmentKey, hash, sig string) bool {
	return media.VerifySIMWindow(pub, key, []string{hash}, sig)
}

// Report records a peer's IM for a CDN-fetched segment (§V-B). Against
// an established SIM — which an authority establishes here if it has
// not yet — a contradicting reporter is blacklisted on the spot.
// Otherwise the first k distinct reporters form the segment's panel:
// agreement establishes the SIM; disagreement triggers CDN arbitration
// and blacklists every peer that lied.
func (c *IMChecker) Report(peerID string, key media.SegmentKey, hash string) error {
	// A banned peer costs no work: an authority would otherwise read,
	// hash and sign whatever key it names before refusing it.
	if c.Blacklisted(peerID) {
		return ErrPeerBlacklisted
	}
	if c.authority {
		c.run(key, 1)
	}
	c.mu.Lock()
	if c.blacklist[peerID] { // banned while the authority read
		c.mu.Unlock()
		return ErrPeerBlacklisted
	}
	if est, ok := c.established[key]; ok {
		// Late report against an established SIM: liars are caught here
		// too.
		if est != hash {
			c.blacklist[peerID] = true
			c.mu.Unlock()
			return ErrPeerBlacklisted
		}
		c.mu.Unlock()
		return nil
	}
	if c.authority {
		// A segment the provider does not originate: nothing to contradict.
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
		c.established[key] = first
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
	c.established[key] = authentic
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

// SIM returns one segment's SIM: SIMWindow's run of one.
func (c *IMChecker) SIM(key media.SegmentKey) (hash, sig string, ok bool) {
	hashes, sig, ok := c.SIMWindow(key, 1)
	if !ok {
		return "", "", false
	}
	return hashes[0], sig, true
}

// onDemandSIMs bounds how many keys an authority establishes on demand
// for one answer: a cold run waits for at most this many origin reads
// and hashes before it is signed. Past them the run goes on only over
// keys already established, up to signal.MaxSIMWindow.
const onDemandSIMs = 16

// SIMWindow returns the run of established hashes that begins at key —
// key's own, then those of the segments after it — capped at count (at
// least 1) and signal.MaxSIMWindow, under one signature
// (media.SignSIMWindow) made as it is answered. A panel's run stops at
// the first key its reports have not established yet. An authority
// first establishes up to onDemandSIMs missing keys of the run it
// originates, stopping at the first one its origin refuses, and past
// those stops at the first key not yet established. A short run is a
// complete answer: the caller asks again from the first key it lacks.
// Signing is deterministic, so concurrent askers of one run get the
// same SIM.
func (c *IMChecker) SIMWindow(key media.SegmentKey, count int) (hashes []string, sig string, ok bool) {
	hashes = c.run(key, min(max(count, 1), signal.MaxSIMWindow))
	if len(hashes) == 0 {
		return nil, "", false
	}
	return hashes, media.SignSIMWindow(c.signKey, key, hashes), true
}

// run returns the established hashes of up to count segments from key
// on, stopping at the first one not established. An authority
// establishes each missing key on the way, up to onDemandSIMs of them,
// with one origin read and one hash, both outside mu; concurrent first
// askers may each hash a key, and find the same ground truth.
func (c *IMChecker) run(key media.SegmentKey, count int) []string {
	hashes := make([]string, 0, count)
	fresh := 0
	for ; len(hashes) < count; key.Index++ {
		c.mu.Lock()
		hash, found := c.established[key]
		c.mu.Unlock()
		if !found && c.authority && fresh < onDemandSIMs {
			fresh++
			data, err := c.cfg.FetchCDN(key)
			if err != nil {
				break
			}
			hash, found = media.IMHash(key, data), true
			c.mu.Lock()
			c.established[key] = hash
			c.mu.Unlock()
		}
		if !found {
			break
		}
		hashes = append(hashes, hash)
	}
	return hashes
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
