// Package secure implements the authenticated swarm transport the
// paper's defenses stop short of: public-key peer identity, a
// Noise-IK-style two-message handshake whose static keys the matcher
// vouches for (binding the channel to the signaling JWT that admitted
// the peer), the AEAD record layer it shares with internal/dtls
// (internal/record), and per-segment signed integrity manifests that
// are verified before any byte enters the segment cache or the playback
// buffer.
//
// The paper (§V) evaluates application-layer patches — disposable
// video-binding JWTs and peer-assisted integrity checking — and leaves
// the unauthenticated transport between peers as the open surface
// every demonstrated attack exploits. This package is the
// counterfactual: what the attacks would have achieved had the
// deployed PDNs authenticated peers end-to-end. provider.Secure()
// deploys it; the attack-replay matrix in internal/attack re-runs the
// paper's attacks against it (docs/defense_matrix.md).
//
// Trust structure. The signaling server holds a TransportAuthority
// keypair. A peer registers its static ed25519 public key in its
// (JWT-authenticated) join; the matcher answers with a voucher — the
// authority's signature over (peerID, swarmID, staticKey). During the
// handshake each side presents its static key, its voucher, and a
// signature by the static key over the handshake transcript. A peer
// that cannot present a voucher for the key it proves possession of is
// rejected before any application byte flows, which is what closes the
// paper's anonymous-peer attack surface: every channel endpoint is a
// peer the matcher admitted, under the identity it admitted.
package secure

import (
	"crypto/ed25519"
	"crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"sync"

	"github.com/stealthy-peers/pdnsec/internal/record"
)

// Errors returned by the handshake.
var (
	ErrBadHandshake = errors.New("secure: malformed handshake message")
	ErrBadSignature = errors.New("secure: handshake signature does not verify")
	ErrBadVoucher   = errors.New("secure: handshake voucher does not verify")
	ErrKeyMismatch  = errors.New("secure: peer static key differs from the matcher-delivered key")
)

// BadKeyError reports a handshake whose peer claimed a static key it
// could not prove possession of (ErrBadSignature) or could not get
// vouched (ErrBadVoucher). ClaimedKey is the hex static public key the
// peer presented; honest clients report it to the matcher, which
// quarantines keys accumulating such reports from distinct peers — the
// leaked/replayed-key defense the key_compromise chaos scenario
// exercises.
type BadKeyError struct {
	ClaimedKey string
	Err        error
}

func (e *BadKeyError) Error() string {
	return fmt.Sprintf("secure: handshake from claimed static key %s: %v", e.ClaimedKey, e.Err)
}

func (e *BadKeyError) Unwrap() error { return e.Err }

// Identity is a peer's long-lived transport identity: an ed25519
// keypair whose public key the peer registers with the matcher at join.
type Identity = record.Identity

// NewIdentity generates a fresh identity.
func NewIdentity() (*Identity, error) { return record.NewIdentity() }

// voucherVersion prefixes the authority's signing message so vouchers
// can never collide with handshake or manifest signatures.
const voucherVersion = "pdnsec-voucher-v1"

// voucherMessage is the byte string the transport authority signs: the
// admitted peer's session identity, its swarm, and its static key.
// Binding the peerID and swarm means a voucher replayed into another
// swarm — or presented by a session the matcher never admitted — fails
// verification.
func voucherMessage(peerID, swarmID, staticKeyHex string) []byte {
	return []byte(voucherVersion + "|" + peerID + "|" + swarmID + "|" + staticKeyHex)
}

// VerifyVoucher checks a matcher voucher against the authority's
// public key.
func VerifyVoucher(authority ed25519.PublicKey, peerID, swarmID, staticKeyHex, voucherHex string) bool {
	if len(authority) != ed25519.PublicKeySize {
		return false
	}
	sig, err := hex.DecodeString(voucherHex)
	if err != nil || len(sig) != ed25519.SignatureSize {
		return false
	}
	return ed25519.Verify(authority, voucherMessage(peerID, swarmID, staticKeyHex), sig)
}

// quarantineThreshold is the number of distinct reporters whose
// bad-signature reports quarantine a static key. One report could be a
// malicious peer framing an honest key; several independent witnesses
// of failed possession proofs mean the key is being presented by
// someone who does not hold it (a leak or a registration replay).
const quarantineThreshold = 3

// TransportAuthority is the matcher-side trust anchor for the secure
// transport: it vouches for static keys at join and quarantines keys
// that accumulate bad-signature reports from distinct peers. It
// implements signal.SecureService.
type TransportAuthority struct {
	pub  ed25519.PublicKey
	priv ed25519.PrivateKey

	mu          sync.Mutex
	reporters   map[string]map[string]bool // staticKeyHex -> distinct reporter IDs
	quarantined map[string]bool
}

// NewTransportAuthority generates a fresh authority keypair.
func NewTransportAuthority() (*TransportAuthority, error) {
	pub, priv, err := ed25519.GenerateKey(rand.Reader)
	if err != nil {
		return nil, fmt.Errorf("secure: generate transport authority: %w", err)
	}
	return &TransportAuthority{
		pub:         pub,
		priv:        priv,
		reporters:   make(map[string]map[string]bool),
		quarantined: make(map[string]bool),
	}, nil
}

// PublicKeyHex returns the authority's verification key in the hex
// form policy delivers it to peers.
func (a *TransportAuthority) PublicKeyHex() string { return hex.EncodeToString(a.pub) }

// Vouch signs a voucher for an admitted peer's static key. The caller
// (the signaling server) has already authenticated the join this key
// arrived in, so the voucher transfers that authentication onto the
// transport.
func (a *TransportAuthority) Vouch(peerID, swarmID, staticKeyHex string) (string, error) {
	raw, err := hex.DecodeString(staticKeyHex)
	if err != nil || len(raw) != ed25519.PublicKeySize {
		return "", fmt.Errorf("secure: vouch: static key %q is not a hex ed25519 public key", staticKeyHex)
	}
	sig := ed25519.Sign(a.priv, voucherMessage(peerID, swarmID, staticKeyHex))
	return hex.EncodeToString(sig), nil
}

// ReportBadKey records that reporterID witnessed a failed possession
// proof for staticKeyHex. It returns true exactly once: on the report
// that tips the key over the distinct-reporter threshold into
// quarantine.
func (a *TransportAuthority) ReportBadKey(reporterID, staticKeyHex string) bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.quarantined[staticKeyHex] {
		return false
	}
	set := a.reporters[staticKeyHex]
	if set == nil {
		set = make(map[string]bool)
		a.reporters[staticKeyHex] = set
	}
	set[reporterID] = true
	if len(set) >= quarantineThreshold {
		a.quarantined[staticKeyHex] = true
		return true
	}
	return false
}

// Quarantined reports whether a static key has been quarantined. The
// matcher excludes quarantined keys from match responses in both
// directions.
func (a *TransportAuthority) Quarantined(staticKeyHex string) bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.quarantined[staticKeyHex]
}
