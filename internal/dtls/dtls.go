// Package dtls implements the DTLS-like handshake of the deployed
// profiles' peer-to-peer transport: an authenticated Diffie-Hellman
// exchange bound to certificate fingerprints (as WebRTC binds DTLS
// certificates to SDP fingerprints). The AES-GCM record layer that
// follows it is internal/record, shared with internal/secure.
//
// Fidelity notes relative to the paper. (1) Peer traffic really is
// encrypted and integrity-protected in transit — the paper stresses that
// PDN's channels are protected, which is why its pollution attack
// poisons the content *before* it enters the channel rather than on the
// wire. (2) Record headers are observable plaintext: the first byte
// distinguishes handshake (0x16) from application data (0x17) records,
// which is exactly the signal the paper's dynamic detector uses to
// confirm "a DTLS connection between known candidate peer pairs".
// (3) Encryption work is metered via optional hooks so the resource
// monitor can attribute CPU cost to crypto, which the paper identifies
// as the main source of PDN's +15% CPU overhead.
package dtls

import (
	"crypto/ecdh"
	"crypto/ed25519"
	"crypto/rand"
	"crypto/sha256"
	"errors"
	"fmt"
	"net"

	"github.com/stealthy-peers/pdnsec/internal/record"
)

// Record content types, matching real (D)TLS code points.
const (
	ContentHandshake byte = 0x16
	ContentAppData   byte = 0x17
)

// framing puts the content type and the DTLS 1.2 wire version (0xfefd)
// in front of every record header.
var framing = record.Framing{
	Handshake: string([]byte{ContentHandshake, 0xfe, 0xfd}),
	Data:      string([]byte{ContentAppData, 0xfe, 0xfd}),
}

// Errors returned by the handshake.
var (
	ErrFingerprintMismatch = errors.New("dtls: peer certificate fingerprint mismatch")
	ErrBadSignature        = errors.New("dtls: invalid handshake signature")
)

// Identity is a peer's long-lived "certificate": an Ed25519 keypair whose
// public-key hash is the fingerprint advertised through signaling.
type Identity = record.Identity

// NewIdentity generates a fresh identity.
func NewIdentity() (*Identity, error) { return record.NewIdentity() }

// Config parameterizes a handshake.
type Config struct {
	// Identity is this side's certificate. Required.
	Identity *Identity
	// ExpectedPeerFingerprint, when non-empty, is verified against the
	// peer's certificate, as WebRTC verifies the SDP fingerprint. An
	// empty value skips verification (the weaker deployments the paper
	// describes).
	ExpectedPeerFingerprint string
	// OnEncrypt and OnDecrypt, when set, are called with the number of
	// plaintext bytes encrypted or decrypted; the cost model prices the
	// two directions differently.
	OnEncrypt func(n int)
	OnDecrypt func(n int)
}

// handshakeMsg is the wire form of ClientHello/ServerHello.
// Layout: random(32) | dhPub(32) | certPub(32) | sig(64).
const handshakeLen = 32 + 32 + 32 + 64

// Conn is an established channel: the shared record layer plus what the
// handshake learned about the peer.
type Conn struct {
	*record.Conn
	peerFingerprint string
}

// PeerFingerprint returns the hex SHA-256 fingerprint of the peer's
// certificate observed during the handshake.
func (c *Conn) PeerFingerprint() string { return c.peerFingerprint }

// Client performs the initiating side of the handshake over raw.
func Client(raw net.Conn, cfg Config) (*Conn, error) { return handshake(raw, cfg, true) }

// Server performs the responding side of the handshake over raw.
func Server(raw net.Conn, cfg Config) (*Conn, error) { return handshake(raw, cfg, false) }

// handshake runs one side and closes raw on failure: a rejected
// handshake leaves the conn unusable, and closing it is what unblocks a
// peer still waiting for a message this side will never send.
func handshake(raw net.Conn, cfg Config, isClient bool) (*Conn, error) {
	c, err := runHandshake(raw, cfg, isClient)
	if err != nil {
		raw.Close()
		return nil, err
	}
	return c, nil
}

func runHandshake(raw net.Conn, cfg Config, isClient bool) (*Conn, error) {
	if cfg.Identity == nil {
		return nil, errors.New("dtls: config requires an Identity")
	}
	dhPriv, err := ecdh.X25519().GenerateKey(rand.Reader)
	if err != nil {
		return nil, fmt.Errorf("dtls: ecdh keygen: %w", err)
	}
	var random [32]byte
	if _, err := rand.Read(random[:]); err != nil {
		return nil, fmt.Errorf("dtls: rand: %w", err)
	}

	local := buildHello(random, dhPriv.PublicKey().Bytes(), cfg.Identity)

	var remote []byte
	if isClient {
		if err := record.WriteRecord(raw, framing.Handshake, 0, 0, local); err != nil {
			return nil, fmt.Errorf("dtls: send hello: %w", err)
		}
		_, _, remote, err = record.ReadRecord(raw, framing.Handshake, handshakeLen)
	} else {
		_, _, remote, err = record.ReadRecord(raw, framing.Handshake, handshakeLen)
		if err == nil {
			err = record.WriteRecord(raw, framing.Handshake, 0, 0, local)
		}
	}
	if err != nil {
		return nil, fmt.Errorf("dtls: handshake exchange: %w", err)
	}

	peerRandom, peerDH, peerCert, err := parseHello(remote)
	if err != nil {
		return nil, err
	}
	peerFP := record.Fingerprint(peerCert)
	if cfg.ExpectedPeerFingerprint != "" && peerFP != cfg.ExpectedPeerFingerprint {
		return nil, ErrFingerprintMismatch
	}

	peerPub, err := ecdh.X25519().NewPublicKey(peerDH)
	if err != nil {
		return nil, fmt.Errorf("dtls: peer DH key: %w", err)
	}
	shared, err := dhPriv.ECDH(peerPub)
	if err != nil {
		return nil, fmt.Errorf("dtls: ECDH: %w", err)
	}

	// The session secret binds both randoms to the DH result.
	clientRandom, serverRandom := random, peerRandom
	if !isClient {
		clientRandom, serverRandom = peerRandom, random
	}
	h := sha256.New()
	h.Write(shared)
	h.Write(clientRandom[:])
	h.Write(serverRandom[:])
	rc, err := record.New(raw, framing, h.Sum(nil), isClient, cfg.OnEncrypt, cfg.OnDecrypt)
	if err != nil {
		return nil, err
	}
	return &Conn{Conn: rc, peerFingerprint: peerFP}, nil
}

func buildHello(random [32]byte, dhPub []byte, id *Identity) []byte {
	msg := make([]byte, 0, handshakeLen)
	msg = append(msg, random[:]...)
	msg = append(msg, dhPub...)
	msg = append(msg, id.Public()...)
	return append(msg, id.Sign(msg)...) // binds cert to DH share and random
}

func parseHello(msg []byte) (random [32]byte, dhPub []byte, certPub ed25519.PublicKey, err error) {
	if len(msg) != handshakeLen {
		return random, nil, nil, fmt.Errorf("dtls: hello length %d, want %d", len(msg), handshakeLen)
	}
	copy(random[:], msg[0:32])
	dhPub = msg[32:64]
	certPub = msg[64:96]
	sig := msg[96:160]
	if !ed25519.Verify(certPub, msg[:96], sig) {
		return random, nil, nil, ErrBadSignature
	}
	return random, dhPub, certPub, nil
}
