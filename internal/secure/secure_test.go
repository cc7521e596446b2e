package secure

import (
	"bytes"
	"crypto/ed25519"
	"crypto/rand"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"io"
	"net"
	"testing"
	"time"

	"github.com/stealthy-peers/pdnsec/internal/record"
)

// pair holds the fixtures for one two-party handshake.
type pair struct {
	ta       *TransportAuthority
	idA, idB *Identity
	cfgA     ChannelConfig
	cfgB     ChannelConfig
}

func newPair(t *testing.T) *pair {
	t.Helper()
	ta, err := NewTransportAuthority()
	if err != nil {
		t.Fatal(err)
	}
	idA, err := NewIdentity()
	if err != nil {
		t.Fatal(err)
	}
	idB, err := NewIdentity()
	if err != nil {
		t.Fatal(err)
	}
	vouch := func(id, key string) string {
		v, err := ta.Vouch(id, "bbb/360p", key)
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	return &pair{
		ta: ta, idA: idA, idB: idB,
		cfgA: ChannelConfig{
			Identity: idA, PeerID: "p1", SwarmID: "bbb/360p",
			Voucher: vouch("p1", idA.PublicKeyHex()), AuthorityKey: ta.PublicKeyHex(),
			ExpectedPeerKey: idB.PublicKeyHex(),
		},
		cfgB: ChannelConfig{
			Identity: idB, PeerID: "p2", SwarmID: "bbb/360p",
			Voucher: vouch("p2", idB.PublicKeyHex()), AuthorityKey: ta.PublicKeyHex(),
		},
	}
}

// connect runs both sides of the handshake over an in-memory pipe.
func (p *pair) connect(t *testing.T) (*Conn, *Conn, error) {
	t.Helper()
	rawA, rawB := net.Pipe()
	t.Cleanup(func() { rawA.Close(); rawB.Close() })
	type res struct {
		c   *Conn
		err error
	}
	done := make(chan res, 1)
	go func() {
		c, err := Client(rawA, p.cfgA)
		done <- res{c, err}
	}()
	b, errB := Server(rawB, p.cfgB)
	a := <-done
	// The side that rejects a handshake holds the verdict; its peer only
	// observes the conn closing under it. Prefer the responder's error —
	// every rejected-initiator test asserts on it — and fall back to the
	// initiator's for responder-side rejections (e.g. a pinned-key
	// mismatch the initiator detects on msg2).
	if errB != nil {
		return nil, nil, errB
	}
	if a.err != nil {
		return nil, nil, a.err
	}
	return a.c, b, nil
}

func TestHandshakeAndRoundTrip(t *testing.T) {
	p := newPair(t)
	a, b, err := p.connect(t)
	if err != nil {
		t.Fatal(err)
	}
	if a.PeerID() != "p2" || b.PeerID() != "p1" {
		t.Errorf("peer IDs = %q/%q, want p2/p1", a.PeerID(), b.PeerID())
	}
	if a.PeerStaticKey() != p.idB.PublicKeyHex() || b.PeerStaticKey() != p.idA.PublicKeyHex() {
		t.Error("peer static keys not observed from the handshake")
	}
	msg := []byte("segment bytes")
	errc := make(chan error, 1)
	go func() { errc <- a.Send(msg) }()
	got, err := b.Recv()
	if err != nil || <-errc != nil {
		t.Fatalf("a->b: %v", err)
	}
	if !bytes.Equal(got, msg) {
		t.Fatalf("a->b got %q", got)
	}
	go func() { errc <- b.Send([]byte("reply")) }()
	got, err = a.Recv()
	if err != nil || <-errc != nil {
		t.Fatalf("b->a: %v", err)
	}
	if string(got) != "reply" {
		t.Fatalf("b->a got %q", got)
	}
}

// TestMultiRecordReassembly: a message larger than one record crosses
// an established secure channel intact (internal/record splits and
// reassembles it).
func TestMultiRecordReassembly(t *testing.T) {
	p := newPair(t)
	a, b, err := p.connect(t)
	if err != nil {
		t.Fatal(err)
	}
	big := make([]byte, 3<<19)
	if _, err := rand.Read(big[:1024]); err != nil {
		t.Fatal(err)
	}
	errc := make(chan error, 1)
	go func() { errc <- a.Send(big) }()
	got, err := b.Recv()
	if err != nil || <-errc != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, big) {
		t.Fatal("multi-record message did not reassemble")
	}
}

// TestImpersonatorRejected is the key_compromise primitive: a peer
// claiming a static key it does not hold fails the possession proof,
// and the error names the claimed key so the verifier can report it.
func TestImpersonatorRejected(t *testing.T) {
	p := newPair(t)
	leaked := p.idB.PublicKeyHex() // scraped from a match response
	p.cfgA.ClaimKey = leaked
	// The matcher vouched for what the impersonator registered.
	v, err := p.ta.Vouch("p1", "bbb/360p", leaked)
	if err != nil {
		t.Fatal(err)
	}
	p.cfgA.Voucher = v
	_, _, err = p.connect(t)
	var bke *BadKeyError
	if !errors.As(err, &bke) || !errors.Is(err, ErrBadSignature) {
		t.Fatalf("impersonation error = %v, want BadKeyError/ErrBadSignature", err)
	}
	if bke.ClaimedKey != leaked {
		t.Errorf("claimed key = %s, want the leaked key", bke.ClaimedKey)
	}
}

// TestUnvouchedKeyRejected: a self-signed key the matcher never
// vouched for is rejected even though the possession proof passes.
func TestUnvouchedKeyRejected(t *testing.T) {
	p := newPair(t)
	p.cfgA.Voucher = hex.EncodeToString(make([]byte, ed25519.SignatureSize))
	_, _, err := p.connect(t)
	if !errors.Is(err, ErrBadVoucher) {
		t.Fatalf("forged voucher error = %v, want ErrBadVoucher", err)
	}
}

// TestVoucherSwarmScoped: a valid voucher from another swarm does not
// transfer.
func TestVoucherSwarmScoped(t *testing.T) {
	p := newPair(t)
	v, err := p.ta.Vouch("p1", "other/720p", p.idA.PublicKeyHex())
	if err != nil {
		t.Fatal(err)
	}
	p.cfgA.Voucher = v
	if _, _, err := p.connect(t); !errors.Is(err, ErrBadVoucher) {
		t.Fatalf("cross-swarm voucher error = %v, want ErrBadVoucher", err)
	}
}

// TestPinnedKeyMismatch: the initiator hard-fails when the responder's
// (otherwise valid) static key is not the one the matcher delivered.
func TestPinnedKeyMismatch(t *testing.T) {
	p := newPair(t)
	other, err := NewIdentity()
	if err != nil {
		t.Fatal(err)
	}
	p.cfgA.ExpectedPeerKey = other.PublicKeyHex()
	if _, _, err := p.connect(t); !errors.Is(err, ErrKeyMismatch) {
		t.Fatalf("pin mismatch error = %v, want ErrKeyMismatch", err)
	}
}

func TestTransportAuthorityQuarantineThreshold(t *testing.T) {
	ta, err := NewTransportAuthority()
	if err != nil {
		t.Fatal(err)
	}
	key := "aa"
	if ta.ReportBadKey("r1", key) || ta.ReportBadKey("r2", key) {
		t.Fatal("quarantined below the distinct-reporter threshold")
	}
	if ta.ReportBadKey("r1", key) {
		t.Fatal("duplicate reporter counted twice")
	}
	if ta.Quarantined(key) {
		t.Fatal("quarantined early")
	}
	if !ta.ReportBadKey("r3", key) {
		t.Fatal("third distinct reporter must quarantine")
	}
	if !ta.Quarantined(key) {
		t.Fatal("key not quarantined")
	}
	if ta.ReportBadKey("r4", key) {
		t.Fatal("quarantine must trip exactly once")
	}
}

// TestHandshakeTimeoutTeardown: a peer that goes silent mid-handshake
// must not wedge — the deadline on the raw conn unblocks the reader.
func TestHandshakeTimeoutTeardown(t *testing.T) {
	p := newPair(t)
	rawA, rawB := net.Pipe()
	defer rawB.Close()
	rawA.SetDeadline(time.Now().Add(50 * time.Millisecond))
	if _, err := Client(rawA, p.cfgA); err == nil {
		t.Fatal("client completed against a silent peer")
	}
	rawA.Close()
}

// TestWireIsNotDTLS: the secure framing is a bare type byte in a
// 14-byte header — deliberately not the 0x16/0x17+0xfefd fingerprint the
// paper's detector keys on.
func TestWireIsNotDTLS(t *testing.T) {
	p := newPair(t)
	rawA, rawB := net.Pipe()
	defer rawB.Close()
	go Client(rawA, p.cfgA)
	hdr := make([]byte, 14)
	if _, err := io.ReadFull(rawB, hdr); err != nil {
		t.Fatal(err)
	}
	if hdr[0] != 0x01 || hdr[9] != record.FlagFinal {
		t.Fatalf("handshake header % x: want type 01 and the final flag", hdr)
	}
	msg1 := make([]byte, binary.BigEndian.Uint32(hdr[10:]))
	if _, err := io.ReadFull(rawB, msg1); err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(msg1, []byte(hsMagic)) {
		t.Fatalf("payload after a 14-byte header is not a handshake message: % x", msg1[:8])
	}
	if framing.Data != "\x02" {
		t.Fatalf("data records start % x, want 02", framing.Data)
	}
}
