package record

import (
	"crypto/ed25519"
	"crypto/rand"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
)

// Identity is a peer's long-lived transport keypair (ed25519). The
// deployed profiles advertise its fingerprint through signaling, as
// WebRTC binds DTLS certificates to SDP fingerprints; the secure
// profile registers the public key itself with the matcher at join.
type Identity struct {
	pub  ed25519.PublicKey
	priv ed25519.PrivateKey
}

// NewIdentity generates a fresh identity.
func NewIdentity() (*Identity, error) {
	pub, priv, err := ed25519.GenerateKey(rand.Reader)
	if err != nil {
		return nil, fmt.Errorf("record: generate identity: %w", err)
	}
	return &Identity{pub: pub, priv: priv}, nil
}

// Public returns the public key.
func (id *Identity) Public() ed25519.PublicKey { return id.pub }

// Sign signs msg with the private key.
func (id *Identity) Sign(msg []byte) []byte { return ed25519.Sign(id.priv, msg) }

// Fingerprint returns the hex SHA-256 of the public key, the value a
// peer publishes in its (simulated) SDP.
func (id *Identity) Fingerprint() string { return Fingerprint(id.pub) }

// Fingerprint returns the hex SHA-256 of a public key.
func Fingerprint(pub ed25519.PublicKey) string {
	sum := sha256.Sum256(pub)
	return hex.EncodeToString(sum[:])
}

// PublicKeyHex returns the hex encoding of the public key — the form it
// travels in through signaling (join registration, match responses) and
// the form quarantine reports cite.
func (id *Identity) PublicKeyHex() string { return hex.EncodeToString(id.pub) }
