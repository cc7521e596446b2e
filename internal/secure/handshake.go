package secure

import (
	"crypto/ecdh"
	"crypto/ed25519"
	"crypto/rand"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"net"

	"github.com/stealthy-peers/pdnsec/internal/record"
)

// framing is a bare record-type byte. Unlike dtls, the secure transport
// does not mimic (D)TLS code points: the paper's detector fingerprints
// the 0x16/0x17 plaintext bytes, and part of the defense's privacy
// story is that the authenticated transport is a distinct protocol.
var framing = record.Framing{Handshake: "\x01", Data: "\x02"}

// Conn is an established secure channel: the shared record layer plus
// what the handshake proved about the peer.
type Conn struct {
	*record.Conn
	peerID     string
	peerKeyHex string
}

// PeerID returns the peer's signaling session ID as proven by its
// handshake voucher.
func (c *Conn) PeerID() string { return c.peerID }

// PeerStaticKey returns the peer's hex static public key observed (and
// verified) during the handshake.
func (c *Conn) PeerStaticKey() string { return c.peerKeyHex }

// Handshake wire format (both messages):
//
//	magic(4)="PDNH" | version(1)=1 | role(1) | ephPub(32) | staticPub(32)
//	| peerIDLen(1) | peerID | voucherLen(2) | voucher | sig(64)
//
// sig is the static key's ed25519 signature over
// "pdnsec-hs-v1" | body-before-sig | transcript, where transcript is 32
// zero bytes in the initiator's message and SHA-256 of the initiator's
// full message in the responder's — so the responder's signature binds
// the whole exchange and a spliced or replayed first message breaks the
// second. This is the Noise-IK shape: the initiator already knows the
// responder's static key (the matcher delivered it), both sides prove
// possession of their static keys, and the session keys bind both
// message transcripts.
const (
	hsMagic   = "PDNH"
	hsVersion = 1

	roleInitiator byte = 1
	roleResponder byte = 2

	// hsFixed is the byte count of everything except the two
	// variable-length fields.
	hsFixed = 4 + 1 + 1 + 32 + 32 + 1 + 2 + ed25519.SignatureSize
	// maxHandshake bounds a handshake message; anything longer is
	// rejected before parsing.
	maxHandshake = hsFixed + 255 + 65535
)

// hsLabel and keyLabel are the domain-separation prefixes for handshake
// signatures and session-key derivation.
const (
	hsLabel  = "pdnsec-hs-v1"
	keyLabel = "pdnsec-key-v1"
)

// ChannelConfig parameterizes one side of a secure channel.
type ChannelConfig struct {
	// Identity is this side's static keypair. Required.
	Identity *Identity
	// PeerID is this side's signaling session ID, the identity the
	// voucher was issued for.
	PeerID string
	// SwarmID scopes vouchers; both sides must agree (they joined the
	// same swarm through the same matcher).
	SwarmID string
	// Voucher is the matcher's hex vouch for (PeerID, SwarmID, static
	// key), delivered in the join welcome.
	Voucher string
	// AuthorityKey is the matcher's hex verification key, delivered in
	// policy. Required unless SkipVerify.
	AuthorityKey string
	// ExpectedPeerKey, when non-empty, pins the peer's hex static key —
	// the initiator sets it to the key the matcher delivered in the
	// match response (the "IK" in Noise-IK).
	ExpectedPeerKey string
	// ClaimKey, when non-empty, is presented as this side's static key
	// instead of Identity's own public key, while still signing with
	// Identity's private key. The possession proof then fails at any
	// honest verifier. This models the key_compromise attacker: a
	// registration replay of a leaked/scraped public key by a peer that
	// does not hold the private half.
	ClaimKey string
	// SkipVerify accepts any well-formed peer handshake without
	// signature, voucher, or pin checks — the attacker's modified SDK.
	// Honest configurations never set it.
	SkipVerify bool
	// OnEncrypt and OnDecrypt, when set, are called with plaintext byte
	// counts so the resource monitor can attribute crypto cost.
	OnEncrypt func(n int)
	OnDecrypt func(n int)
}

// claimedPub returns the static public key this side presents.
func (cfg *ChannelConfig) claimedPub() (ed25519.PublicKey, error) {
	if cfg.ClaimKey == "" {
		return cfg.Identity.Public(), nil
	}
	raw, err := hex.DecodeString(cfg.ClaimKey)
	if err != nil || len(raw) != ed25519.PublicKeySize {
		return nil, fmt.Errorf("secure: ClaimKey %q is not a hex ed25519 public key", cfg.ClaimKey)
	}
	return ed25519.PublicKey(raw), nil
}

// handshakeMsg is a parsed handshake message. body is the signed
// prefix (everything before sig).
type handshakeMsg struct {
	role      byte
	ephPub    []byte
	staticPub ed25519.PublicKey
	peerID    string
	voucher   []byte
	sig       []byte
	body      []byte
}

// buildHandshake assembles and signs one handshake message.
func buildHandshake(cfg *ChannelConfig, role byte, ephPub []byte, transcript [32]byte) ([]byte, error) {
	claim, err := cfg.claimedPub()
	if err != nil {
		return nil, err
	}
	voucher, err := hex.DecodeString(cfg.Voucher)
	if err != nil {
		return nil, fmt.Errorf("secure: voucher is not hex: %w", err)
	}
	if len(cfg.PeerID) > 255 {
		return nil, fmt.Errorf("secure: peer ID %q too long", cfg.PeerID)
	}
	if len(voucher) > 65535 {
		return nil, errors.New("secure: voucher too long")
	}
	body := make([]byte, 0, hsFixed+len(cfg.PeerID)+len(voucher))
	body = append(body, hsMagic...)
	body = append(body, hsVersion, role)
	body = append(body, ephPub...)
	body = append(body, claim...)
	body = append(body, byte(len(cfg.PeerID)))
	body = append(body, cfg.PeerID...)
	var vlen [2]byte
	binary.BigEndian.PutUint16(vlen[:], uint16(len(voucher)))
	body = append(body, vlen[:]...)
	body = append(body, voucher...)
	return append(body, cfg.Identity.Sign(signMessage(body, transcript))...), nil
}

// signMessage is the byte string a handshake signature covers.
func signMessage(body []byte, transcript [32]byte) []byte {
	msg := make([]byte, 0, len(hsLabel)+len(body)+32)
	msg = append(msg, hsLabel...)
	msg = append(msg, body...)
	return append(msg, transcript[:]...)
}

// parseHandshake strictly decodes a handshake message: exact lengths,
// known version, known role, no trailing bytes. It performs no
// cryptographic checks — those need the verifier's context.
func parseHandshake(msg []byte) (*handshakeMsg, error) {
	if len(msg) < hsFixed || len(msg) > maxHandshake {
		return nil, fmt.Errorf("%w: length %d", ErrBadHandshake, len(msg))
	}
	if string(msg[:4]) != hsMagic {
		return nil, fmt.Errorf("%w: bad magic", ErrBadHandshake)
	}
	if msg[4] != hsVersion {
		return nil, fmt.Errorf("%w: version %d", ErrBadHandshake, msg[4])
	}
	role := msg[5]
	if role != roleInitiator && role != roleResponder {
		return nil, fmt.Errorf("%w: role %d", ErrBadHandshake, role)
	}
	off := 6
	ephPub := msg[off : off+32]
	off += 32
	staticPub := msg[off : off+32]
	off += 32
	idLen := int(msg[off])
	off++
	if len(msg) < off+idLen+2 {
		return nil, fmt.Errorf("%w: truncated peer ID", ErrBadHandshake)
	}
	peerID := string(msg[off : off+idLen])
	off += idLen
	vLen := int(binary.BigEndian.Uint16(msg[off : off+2]))
	off += 2
	if len(msg) != off+vLen+ed25519.SignatureSize {
		return nil, fmt.Errorf("%w: length %d does not match declared fields", ErrBadHandshake, len(msg))
	}
	voucher := msg[off : off+vLen]
	off += vLen
	return &handshakeMsg{
		role:      role,
		ephPub:    ephPub,
		staticPub: ed25519.PublicKey(staticPub),
		peerID:    peerID,
		voucher:   voucher,
		sig:       msg[off:],
		body:      msg[:len(msg)-ed25519.SignatureSize],
	}, nil
}

// verifyHandshake runs the cryptographic checks on a parsed peer
// message: possession proof, matcher voucher, and the optional static
// key pin. Failures that implicate the claimed key return *BadKeyError
// so the caller can report the key for quarantine.
func verifyHandshake(cfg *ChannelConfig, m *handshakeMsg, transcript [32]byte) error {
	if cfg.SkipVerify {
		return nil
	}
	claimed := hex.EncodeToString(m.staticPub)
	if !ed25519.Verify(m.staticPub, signMessage(m.body, transcript), m.sig) {
		return &BadKeyError{ClaimedKey: claimed, Err: ErrBadSignature}
	}
	authority, err := hex.DecodeString(cfg.AuthorityKey)
	if err != nil || len(authority) != ed25519.PublicKeySize {
		return fmt.Errorf("secure: authority key %q is not a hex ed25519 public key", cfg.AuthorityKey)
	}
	if !VerifyVoucher(authority, m.peerID, cfg.SwarmID, claimed, hex.EncodeToString(m.voucher)) {
		return &BadKeyError{ClaimedKey: claimed, Err: ErrBadVoucher}
	}
	if cfg.ExpectedPeerKey != "" && claimed != cfg.ExpectedPeerKey {
		return ErrKeyMismatch
	}
	return nil
}

// Client performs the initiating side of the handshake over raw.
func Client(raw net.Conn, cfg ChannelConfig) (*Conn, error) { return handshake(raw, cfg, true) }

// Server performs the responding side of the handshake over raw.
func Server(raw net.Conn, cfg ChannelConfig) (*Conn, error) { return handshake(raw, cfg, false) }

// handshake runs one side and closes raw on failure: a rejected
// handshake leaves the conn unusable, and closing it is what unblocks
// a peer still waiting for the message this side will never send —
// e.g. an initiator whose possession proof the responder just refused.
func handshake(raw net.Conn, cfg ChannelConfig, isInitiator bool) (*Conn, error) {
	c, err := runHandshake(raw, cfg, isInitiator)
	if err != nil {
		raw.Close()
		return nil, err
	}
	return c, nil
}

func runHandshake(raw net.Conn, cfg ChannelConfig, isInitiator bool) (*Conn, error) {
	if cfg.Identity == nil {
		return nil, errors.New("secure: config requires an Identity")
	}
	ephPriv, err := ecdh.X25519().GenerateKey(rand.Reader)
	if err != nil {
		return nil, fmt.Errorf("secure: ecdh keygen: %w", err)
	}

	var msg1, msg2 []byte
	var peer *handshakeMsg
	if isInitiator {
		msg1, err = buildHandshake(&cfg, roleInitiator, ephPriv.PublicKey().Bytes(), [32]byte{})
		if err != nil {
			return nil, err
		}
		if err := record.WriteRecord(raw, framing.Handshake, record.FlagFinal, 0, msg1); err != nil {
			return nil, fmt.Errorf("secure: send handshake: %w", err)
		}
		msg2, err = readHandshakeRecord(raw)
		if err != nil {
			return nil, err
		}
		peer, err = parseHandshake(msg2)
		if err != nil {
			return nil, err
		}
		if peer.role != roleResponder {
			return nil, fmt.Errorf("%w: expected responder message", ErrBadHandshake)
		}
		if err := verifyHandshake(&cfg, peer, sha256.Sum256(msg1)); err != nil {
			return nil, err
		}
	} else {
		msg1, err = readHandshakeRecord(raw)
		if err != nil {
			return nil, err
		}
		peer, err = parseHandshake(msg1)
		if err != nil {
			return nil, err
		}
		if peer.role != roleInitiator {
			return nil, fmt.Errorf("%w: expected initiator message", ErrBadHandshake)
		}
		if err := verifyHandshake(&cfg, peer, [32]byte{}); err != nil {
			return nil, err
		}
		msg2, err = buildHandshake(&cfg, roleResponder, ephPriv.PublicKey().Bytes(), sha256.Sum256(msg1))
		if err != nil {
			return nil, err
		}
		if err := record.WriteRecord(raw, framing.Handshake, record.FlagFinal, 0, msg2); err != nil {
			return nil, fmt.Errorf("secure: send handshake: %w", err)
		}
	}

	peerEph, err := ecdh.X25519().NewPublicKey(peer.ephPub)
	if err != nil {
		return nil, fmt.Errorf("%w: peer ephemeral key: %w", ErrBadHandshake, err)
	}
	shared, err := ephPriv.ECDH(peerEph)
	if err != nil {
		return nil, fmt.Errorf("%w: ECDH: %w", ErrBadHandshake, err)
	}

	// The session secret binds the DH result to both full message
	// transcripts.
	h1, h2 := sha256.Sum256(msg1), sha256.Sum256(msg2)
	master := sha256.New()
	master.Write([]byte(keyLabel))
	master.Write(shared)
	master.Write(h1[:])
	master.Write(h2[:])
	rc, err := record.New(raw, framing, master.Sum(nil), isInitiator, cfg.OnEncrypt, cfg.OnDecrypt)
	if err != nil {
		return nil, err
	}
	return &Conn{Conn: rc, peerID: peer.peerID, peerKeyHex: hex.EncodeToString(peer.staticPub)}, nil
}

// readHandshakeRecord reads one record and requires it to be a
// single-record handshake message.
func readHandshakeRecord(raw net.Conn) ([]byte, error) {
	flags, _, payload, err := record.ReadRecord(raw, framing.Handshake, maxHandshake)
	if errors.Is(err, record.ErrBadPrefix) || errors.Is(err, record.ErrRecordTooLarge) {
		return nil, fmt.Errorf("%w: %w", ErrBadHandshake, err)
	}
	if err != nil {
		return nil, fmt.Errorf("secure: read handshake: %w", err)
	}
	if flags&record.FlagFinal == 0 {
		return nil, fmt.Errorf("%w: handshake record is not final", ErrBadHandshake)
	}
	return payload, nil
}
