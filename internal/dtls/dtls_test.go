package dtls

import (
	"bytes"
	"encoding/binary"
	"io"
	"net"
	"sync/atomic"
	"testing"
	"testing/quick"
)

// pipePair returns an in-memory full-duplex conn pair.
func pipePair() (net.Conn, net.Conn) { return net.Pipe() }

func mustIdentity(t *testing.T) *Identity {
	t.Helper()
	id, err := NewIdentity()
	if err != nil {
		t.Fatal(err)
	}
	return id
}

// connect runs a full handshake over a pipe and returns both conns.
func connect(t *testing.T, ccfg, scfg Config) (*Conn, *Conn) {
	t.Helper()
	a, b := pipePair()
	type res struct {
		c   *Conn
		err error
	}
	ch := make(chan res, 1)
	go func() {
		c, err := Server(b, scfg)
		ch <- res{c, err}
	}()
	client, err := Client(a, ccfg)
	if err != nil {
		t.Fatalf("client handshake: %v", err)
	}
	r := <-ch
	if r.err != nil {
		t.Fatalf("server handshake: %v", r.err)
	}
	return client, r.c
}

func TestHandshakeAndEcho(t *testing.T) {
	ci, si := mustIdentity(t), mustIdentity(t)
	client, server := connect(t,
		Config{Identity: ci, ExpectedPeerFingerprint: si.Fingerprint()},
		Config{Identity: si, ExpectedPeerFingerprint: ci.Fingerprint()},
	)
	go func() {
		msg, err := server.Recv()
		if err == nil {
			server.Send(append([]byte("ack:"), msg...))
		}
	}()
	if err := client.Send([]byte("segment-bytes")); err != nil {
		t.Fatal(err)
	}
	got, err := client.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "ack:segment-bytes" {
		t.Fatalf("got %q", got)
	}
	if client.PeerFingerprint() != si.Fingerprint() {
		t.Fatal("client's view of server fingerprint wrong")
	}
	if server.PeerFingerprint() != ci.Fingerprint() {
		t.Fatal("server's view of client fingerprint wrong")
	}
}

func TestFingerprintMismatchRejected(t *testing.T) {
	ci, si := mustIdentity(t), mustIdentity(t)
	evil := mustIdentity(t)
	a, b := pipePair()
	go Server(b, Config{Identity: si})
	_, err := Client(a, Config{Identity: ci, ExpectedPeerFingerprint: evil.Fingerprint()})
	if err != ErrFingerprintMismatch {
		t.Fatalf("err = %v, want ErrFingerprintMismatch", err)
	}
}

func TestNoFingerprintCheckAllowsAnyPeer(t *testing.T) {
	ci, si := mustIdentity(t), mustIdentity(t)
	client, server := connect(t, Config{Identity: ci}, Config{Identity: si})
	defer client.Close()
	defer server.Close()
}

func TestLargeMessageFragmentation(t *testing.T) {
	ci, si := mustIdentity(t), mustIdentity(t)
	client, server := connect(t, Config{Identity: ci}, Config{Identity: si})
	// 3MB segment: the paper's Table VI uses 3MB segments.
	big := bytes.Repeat([]byte{0xab}, 3*1024*1024)
	go client.Send(big)
	got, err := server.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, big) {
		t.Fatalf("large message corrupted: len %d vs %d", len(got), len(big))
	}
}

// TestCryptoHookCountsBytes: the Config hooks reach the record layer,
// encryption metered on the sender and decryption on the receiver (the
// cost model prices them differently).
func TestCryptoHookCountsBytes(t *testing.T) {
	ci, si := mustIdentity(t), mustIdentity(t)
	var encrypted, decrypted atomic.Int64
	count := func(c *atomic.Int64) func(int) { return func(n int) { c.Add(int64(n)) } }
	client, server := connect(t,
		Config{Identity: ci, OnEncrypt: count(&encrypted)},
		Config{Identity: si, OnDecrypt: count(&decrypted)},
	)
	msg := make([]byte, 10_000)
	go client.Send(msg)
	if _, err := server.Recv(); err != nil {
		t.Fatal(err)
	}
	if encrypted.Load() != 10_000 || decrypted.Load() != 10_000 {
		t.Fatalf("hooks saw %d encrypted / %d decrypted bytes, want 10000 each", encrypted.Load(), decrypted.Load())
	}
}

func TestHelloParseErrors(t *testing.T) {
	if _, _, _, err := parseHello(nil); err == nil {
		t.Fatal("nil hello should fail")
	}
	id := mustIdentity(t)
	var random [32]byte
	msg := buildHello(random, make([]byte, 32), id)
	msg[0] ^= 0x01 // break the signature
	if _, _, _, err := parseHello(msg); err != ErrBadSignature {
		t.Fatalf("err = %v, want ErrBadSignature", err)
	}
}

func TestConfigRequiresIdentity(t *testing.T) {
	a, _ := pipePair()
	if _, err := Client(a, Config{}); err == nil {
		t.Fatal("missing identity should fail")
	}
}

// Property: any payload round-trips an established channel byte-exactly.
func TestQuickSendRecv(t *testing.T) {
	ci, si := mustIdentity(t), mustIdentity(t)
	client, server := connect(t, Config{Identity: ci}, Config{Identity: si})
	f := func(msg []byte) bool {
		errc := make(chan error, 1)
		go func() { errc <- client.Send(msg) }()
		got, err := server.Recv()
		if err != nil || <-errc != nil {
			return false
		}
		return bytes.Equal(got, msg)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestWireLooksLikeDTLS: every record this transport writes starts with
// a (D)TLS content type and the DTLS 1.2 version — the plaintext
// fingerprint the paper's dynamic detector keys on — in a 16-byte header.
func TestWireLooksLikeDTLS(t *testing.T) {
	a, b := pipePair()
	defer b.Close()
	go Client(a, Config{Identity: mustIdentity(t)})
	hdr := make([]byte, 16)
	if _, err := io.ReadFull(b, hdr); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(hdr[:3], []byte{ContentHandshake, 0xfe, 0xfd}) {
		t.Fatalf("hello header starts % x, want 16 fe fd", hdr[:3])
	}
	if n := binary.BigEndian.Uint32(hdr[12:]); n != handshakeLen {
		t.Fatalf("hello header declares %d payload bytes, want %d", n, handshakeLen)
	}
	if framing.Data != string([]byte{ContentAppData, 0xfe, 0xfd}) {
		t.Fatalf("data records start % x, want 17 fe fd", framing.Data)
	}
}
