package secure

import (
	"crypto/sha256"
	"testing"
)

// buildSeedHandshake produces a well-formed signed handshake message
// for the fuzz corpora, so mutation starts from the accepting path.
func buildSeedHandshake(tb testing.TB, role byte) []byte {
	tb.Helper()
	ta, err := NewTransportAuthority()
	if err != nil {
		tb.Fatal(err)
	}
	id, err := NewIdentity()
	if err != nil {
		tb.Fatal(err)
	}
	v, err := ta.Vouch("p1", "bbb/360p", id.PublicKeyHex())
	if err != nil {
		tb.Fatal(err)
	}
	cfg := ChannelConfig{Identity: id, PeerID: "p1", SwarmID: "bbb/360p", Voucher: v}
	eph := make([]byte, 32)
	msg, err := buildHandshake(&cfg, role, eph, sha256.Sum256([]byte("t")))
	if err != nil {
		tb.Fatal(err)
	}
	return msg
}

// FuzzHandshakeParse: the handshake parser consumes bytes straight off
// an unauthenticated transport; it must reject malformed input with an
// error, never panic, and any message it accepts must re-verify its
// own structural invariants.
func FuzzHandshakeParse(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("PDNH"))
	f.Add(buildSeedHandshake(f, roleInitiator))
	f.Add(buildSeedHandshake(f, roleResponder))
	// Truncated and length-field-lying variants.
	seed := buildSeedHandshake(f, roleInitiator)
	f.Add(seed[:len(seed)-1])
	lied := append([]byte(nil), seed...)
	lied[6+32+32] = 0xFF // peerIDLen points past the end
	f.Add(lied)

	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := parseHandshake(data)
		if err != nil {
			return
		}
		if m.role != roleInitiator && m.role != roleResponder {
			t.Fatalf("accepted unknown role %d", m.role)
		}
		if len(m.ephPub) != 32 || len(m.staticPub) != 32 || len(m.sig) != 64 {
			t.Fatalf("accepted malformed field lengths: %d/%d/%d", len(m.ephPub), len(m.staticPub), len(m.sig))
		}
		if len(m.body)+len(m.sig) != len(data) {
			t.Fatal("signed body and signature do not cover the full message")
		}
		// Verification over fuzzer-controlled bytes must not panic either.
		cfg := ChannelConfig{SwarmID: "bbb/360p", AuthorityKey: "00"}
		_ = verifyHandshake(&cfg, m, sha256.Sum256(data))
	})
}
