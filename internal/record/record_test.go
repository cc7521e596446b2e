package record

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"testing"
	"testing/quick"
	"time"
)

// The two framings in use, spelled out as the wire sees them:
// internal/dtls mimics the (D)TLS code points the paper's detector
// fingerprints, internal/secure is a bare type byte.
var (
	dtlsFraming   = Framing{Handshake: "\x16\xfe\xfd", Data: "\x17\xfe\xfd"}
	secureFraming = Framing{Handshake: "\x01", Data: "\x02"}
)

// headerLen is the plaintext header; overhead adds the 16-byte AEAD tag
// — what a segment pays per record on the wire.
var framings = []struct {
	name                string
	f                   Framing
	headerLen, overhead int
}{
	{"dtls", dtlsFraming, 16, 32},
	{"secure", secureFraming, 14, 30},
}

// wireConn is a net.Conn over fixed bytes: reads drain `in`, writes
// accumulate in `out`. A sender over an empty wireConn yields the exact
// wire image of its messages; a receiver over an image (honest or
// doctored) is the shape of an attacker who owns the wire.
type wireConn struct {
	in  *bytes.Reader
	out bytes.Buffer
}

func (c *wireConn) Read(p []byte) (int, error)       { return c.in.Read(p) }
func (c *wireConn) Write(p []byte) (int, error)      { return c.out.Write(p) }
func (c *wireConn) Close() error                     { return nil }
func (c *wireConn) LocalAddr() net.Addr              { return nil }
func (c *wireConn) RemoteAddr() net.Addr             { return nil }
func (c *wireConn) SetDeadline(time.Time) error      { return nil }
func (c *wireConn) SetReadDeadline(time.Time) error  { return nil }
func (c *wireConn) SetWriteDeadline(time.Time) error { return nil }

var testSecret = []byte("one shared secret from a handshake")

// seal returns the wire image of msgs sent by the initiator.
func seal(tb testing.TB, f Framing, onEncrypt func(int), msgs ...[]byte) []byte {
	tb.Helper()
	w := &wireConn{in: bytes.NewReader(nil)}
	c, err := New(w, f, testSecret, true, onEncrypt, nil)
	if err != nil {
		tb.Fatal(err)
	}
	for _, m := range msgs {
		if err := c.Send(m); err != nil {
			tb.Fatal(err)
		}
	}
	return w.out.Bytes()
}

// receiver returns the side of the channel that reads wire; initiator
// picks which direction's key it opens with.
func receiver(tb testing.TB, f Framing, initiator bool, onDecrypt func(int), wire []byte) *Conn {
	tb.Helper()
	c, err := New(&wireConn{in: bytes.NewReader(wire)}, f, testSecret, initiator, nil, onDecrypt)
	if err != nil {
		tb.Fatal(err)
	}
	return c
}

// records splits a wire image into its records' (header, payload).
func records(tb testing.TB, prefix string, wire []byte) (hdrs, payloads [][]byte) {
	tb.Helper()
	hlen := len(prefix) + tailLen
	for len(wire) > 0 {
		n := int(binary.BigEndian.Uint32(wire[hlen-4 : hlen]))
		hdrs = append(hdrs, wire[:hlen])
		payloads = append(payloads, wire[hlen:hlen+n])
		wire = wire[hlen+n:]
	}
	return hdrs, payloads
}

// TestHeaderLayout pins both transports' wire headers byte for byte,
// and the per-record overhead: 30 bytes on the secure framing, 32 on the
// deployed one.
func TestHeaderLayout(t *testing.T) {
	tail := []byte{1, 2, 3, 4, 5, 6, 7, 8, FlagFinal, 0, 0, 0, 3, 'a', 'b', 'c'}
	for _, tc := range framings {
		t.Run(tc.name, func(t *testing.T) {
			for _, prefix := range []string{tc.f.Handshake, tc.f.Data} {
				var buf bytes.Buffer
				if err := WriteRecord(&buf, prefix, FlagFinal, 0x0102030405060708, []byte("abc")); err != nil {
					t.Fatal(err)
				}
				if want := append([]byte(prefix), tail...); !bytes.Equal(buf.Bytes(), want) {
					t.Errorf("record = %x, want %x", buf.Bytes(), want)
				}
				if got := buf.Len() - 3; got != tc.headerLen {
					t.Errorf("header is %d bytes, want %d", got, tc.headerLen)
				}
				flags, seq, payload, err := ReadRecord(&buf, prefix, 3)
				if err != nil || flags != FlagFinal || seq != 0x0102030405060708 || string(payload) != "abc" {
					t.Errorf("ReadRecord = %d, %#x, %q, %v", flags, seq, payload, err)
				}
			}
			msg := make([]byte, 1000)
			if got := len(seal(t, tc.f, nil, msg)) - len(msg); got != tc.overhead {
				t.Errorf("one-record message costs %d wire bytes over its plaintext, want %d", got, tc.overhead)
			}
		})
	}
}

// TestReadRecordCapsAtHeader pins that ReadRecord checks the caller's
// cap on the header alone: a header announcing cap+1 bytes, with no
// body ever sent, fails with ErrRecordTooLarge instead of waiting for
// the body. A record of exactly cap bytes still reads.
func TestReadRecordCapsAtHeader(t *testing.T) {
	const limit = 160
	for _, tc := range framings {
		t.Run(tc.name, func(t *testing.T) {
			prefix := tc.f.Handshake
			a, b := net.Pipe()
			defer a.Close()
			defer b.Close()
			go func() {
				hdr := make([]byte, len(prefix)+tailLen)
				putHeader(hdr, prefix, FlagFinal, 0, limit+1)
				a.Write(hdr)
			}()
			// Were the body awaited, the deadline would end the read with
			// a timeout rather than ErrRecordTooLarge.
			b.SetReadDeadline(time.Now().Add(5 * time.Second))
			if _, _, _, err := ReadRecord(b, prefix, limit); !errors.Is(err, ErrRecordTooLarge) {
				t.Fatalf("header announcing %d bytes against cap %d: %v, want ErrRecordTooLarge", limit+1, limit, err)
			}

			var buf bytes.Buffer
			if err := WriteRecord(&buf, prefix, FlagFinal, 0, make([]byte, limit)); err != nil {
				t.Fatal(err)
			}
			if _, _, payload, err := ReadRecord(&buf, prefix, limit); err != nil || len(payload) != limit {
				t.Fatalf("record of exactly cap bytes: %d bytes, %v", len(payload), err)
			}
		})
	}
}

// TestRecordLayer is the one record suite, run over both framings.
func TestRecordLayer(t *testing.T) {
	for _, tc := range framings {
		f := tc.f
		t.Run(tc.name, func(t *testing.T) {
			t.Run("round_trip_both_directions", func(t *testing.T) {
				a, b := net.Pipe()
				defer a.Close()
				defer b.Close()
				ini, err := New(a, f, testSecret, true, nil, nil)
				if err != nil {
					t.Fatal(err)
				}
				rsp, err := New(b, f, testSecret, false, nil, nil)
				if err != nil {
					t.Fatal(err)
				}
				for _, dir := range []struct {
					name     string
					from, to *Conn
				}{{"i2r", ini, rsp}, {"r2i", rsp, ini}} {
					// Property: any payload round-trips byte-exactly.
					check := func(msg []byte) bool {
						errc := make(chan error, 1)
						go func() { errc <- dir.from.Send(msg) }()
						got, err := dir.to.Recv()
						return err == nil && <-errc == nil && bytes.Equal(got, msg)
					}
					if err := quick.Check(check, &quick.Config{MaxCount: 30}); err != nil {
						t.Fatalf("%s: %v", dir.name, err)
					}
				}
			})

			// Messages over 1 MiB split into records and reassemble, the
			// strict sequence advancing per record; the crypto hooks see
			// every plaintext byte exactly once per side. 3 MiB is the
			// paper's Table VI segment size.
			t.Run("fragmentation_and_hooks", func(t *testing.T) {
				for _, size := range []int{10_000, maxRecord, maxRecord + maxRecord/2, 3 * maxRecord} {
					big := bytes.Repeat([]byte{0xab}, size)
					copy(big, "head")
					copy(big[size-4:], "tail")
					var enc, dec, encCalls int
					wire := seal(t, f, func(n int) { enc += n; encCalls++ }, big, []byte("next"))
					hdrs, payloads := records(t, f.Data, wire)
					wantRecs := (size+maxRecord-1)/maxRecord + 1
					if len(hdrs) != wantRecs || encCalls != wantRecs {
						t.Fatalf("size %d: %d records, %d hook calls, want %d", size, len(hdrs), encCalls, wantRecs)
					}
					for i, h := range hdrs {
						tail := h[len(f.Data):]
						final := i >= wantRecs-2 // last record of big, and "next"
						if seq := binary.BigEndian.Uint64(tail[:8]); seq != uint64(i) || (tail[8]&FlagFinal != 0) != final {
							t.Fatalf("size %d: record %d has seq %d flags %d", size, i, seq, tail[8])
						}
						if len(payloads[i]) > maxRecord+tc.overhead-tc.headerLen {
							t.Fatalf("size %d: record %d carries %d bytes", size, i, len(payloads[i]))
						}
					}
					r := receiver(t, f, false, func(n int) { dec += n }, wire)
					got, err := r.Recv()
					if err != nil || !bytes.Equal(got, big) {
						t.Fatalf("size %d: reassembly: len %d, %v", size, len(got), err)
					}
					if got, err := r.Recv(); err != nil || string(got) != "next" {
						t.Fatalf("size %d: message after a multi-record one: %q, %v", size, got, err)
					}
					if enc != size+4 || dec != size+4 {
						t.Fatalf("size %d: hooks counted %d encrypted / %d decrypted plaintext bytes", size, enc, dec)
					}
				}
			})

			// In-transit substitution of sealed bytes must surface as
			// ErrDecrypt, never as different plaintext.
			t.Run("tampered", func(t *testing.T) {
				wire := seal(t, f, nil, []byte("substituted segment"))
				wire[len(f.Data)+tailLen+3] ^= 0xff
				if msg, err := receiver(t, f, false, nil, wire).Recv(); !errors.Is(err, ErrDecrypt) || msg != nil {
					t.Fatalf("tampered record: %q, %v, want ErrDecrypt", msg, err)
				}
			})

			// A record cut short of its AEAD tag is an authentication
			// failure, not a panic.
			t.Run("truncated_tag", func(t *testing.T) {
				wire := seal(t, f, nil, []byte("x"))
				short := append([]byte(nil), wire[:len(wire)-10]...)
				binary.BigEndian.PutUint32(short[len(f.Data)+9:], uint32(len(short)-len(f.Data)-tailLen))
				if _, err := receiver(t, f, false, nil, short).Recv(); !errors.Is(err, ErrDecrypt) {
					t.Fatalf("truncated record: %v, want ErrDecrypt", err)
				}
				// Cut without fixing the length field: the stream just ends.
				if _, err := receiver(t, f, false, nil, wire[:len(wire)-10]).Recv(); !errors.Is(err, io.ErrUnexpectedEOF) {
					t.Fatalf("short stream: %v, want io.ErrUnexpectedEOF", err)
				}
			})

			// The nonce is the sequence number, so a replayed (or skipped)
			// record must be refused rather than re-accepted.
			t.Run("replayed", func(t *testing.T) {
				wire := seal(t, f, nil, []byte("once"))
				r := receiver(t, f, false, nil, append(append([]byte(nil), wire...), wire...))
				if got, err := r.Recv(); err != nil || string(got) != "once" {
					t.Fatalf("original record: %q, %v", got, err)
				}
				if _, err := r.Recv(); !errors.Is(err, ErrReplay) {
					t.Fatalf("replayed record: %v, want ErrReplay", err)
				}
				two := seal(t, f, nil, []byte("zero"), []byte("one"))
				_, payloads := records(t, f.Data, two)
				skipped := two[len(f.Data)+tailLen+len(payloads[0]):]
				if _, err := receiver(t, f, false, nil, skipped).Recv(); !errors.Is(err, ErrReplay) {
					t.Fatalf("dropped record: %v, want ErrReplay", err)
				}
			})

			// A length field past the limit fails before the payload is
			// allocated, on both the reading and the writing side.
			t.Run("oversize", func(t *testing.T) {
				hdr := make([]byte, len(f.Data)+tailLen)
				copy(hdr, f.Data)
				binary.BigEndian.PutUint32(hdr[len(f.Data)+9:], 0xffffffff)
				if _, _, _, err := ReadRecord(bytes.NewReader(hdr), f.Data, maxRecord+64); !errors.Is(err, ErrRecordTooLarge) {
					t.Fatalf("ReadRecord: %v, want ErrRecordTooLarge", err)
				}
				if _, err := receiver(t, f, false, nil, hdr).Recv(); !errors.Is(err, ErrRecordTooLarge) {
					t.Fatalf("Recv: %v, want ErrRecordTooLarge", err)
				}
				if err := WriteRecord(io.Discard, f.Data, 0, 0, make([]byte, maxRecord+65)); !errors.Is(err, ErrRecordTooLarge) {
					t.Fatalf("WriteRecord: %v, want ErrRecordTooLarge", err)
				}
			})

			// A handshake-typed record in the data stream is not data.
			t.Run("wrong_type", func(t *testing.T) {
				wire := seal(t, f, nil, []byte("seg"))
				copy(wire, f.Handshake)
				if _, err := receiver(t, f, false, nil, wire).Recv(); !errors.Is(err, ErrBadPrefix) {
					t.Fatalf("handshake record as data: %v, want ErrBadPrefix", err)
				}
			})

			// Each direction has its own key: a record reflected back at
			// its sender does not open.
			t.Run("direction_keys_differ", func(t *testing.T) {
				wire := seal(t, f, nil, []byte("seg"))
				if _, err := receiver(t, f, true, nil, wire).Recv(); !errors.Is(err, ErrDecrypt) {
					t.Fatalf("reflected record: %v, want ErrDecrypt", err)
				}
			})
		})
	}
}

// FuzzRecordRecv: the record layer consumes attacker-owned wire bytes
// on every profile. Malformed lengths, truncated tags, and replayed
// sequence numbers must all surface as errors — Recv must never panic,
// never return unauthenticated plaintext, and always terminate (no
// wedged teardown).
func FuzzRecordRecv(f *testing.F) {
	framing := func(deployed bool) Framing {
		if deployed {
			return dtlsFraming
		}
		return secureFraming
	}
	for _, deployed := range []bool{false, true} {
		fr := framing(deployed)
		good := seal(f, fr, nil, []byte("segment"))
		f.Add(deployed, []byte{})
		f.Add(deployed, []byte(fr.Data))
		f.Add(deployed, good)
		f.Add(deployed, good[:len(good)-5])                         // truncated tag
		f.Add(deployed, append(append([]byte{}, good...), good...)) // replayed nonce
		hdr := make([]byte, len(fr.Data)+tailLen)
		copy(hdr, fr.Data)
		binary.BigEndian.PutUint32(hdr[len(fr.Data)+9:], maxRecord+65)
		f.Add(deployed, hdr) // lying length field
		f.Add(deployed, seal(f, fr, nil, []byte("segment"), []byte("next")))
	}
	// Multi-record messages, after the single-record seeds so those keep
	// their numbers.
	for _, deployed := range []bool{false, true} {
		fr := framing(deployed)
		split := sealSplit(f, fr, []byte("seg"), []byte("ment"), []byte("!"))
		f.Add(deployed, split)
		_, payloads := records(f, fr.Data, split)
		f.Add(deployed, split[:len(split)-len(payloads[2])-len(fr.Data)-tailLen]) // no final record
		tampered := append([]byte(nil), split...)
		tampered[len(tampered)-1] ^= 0xff
		f.Add(deployed, tampered) // reassembly must not leak the records before it
	}

	f.Fuzz(func(t *testing.T, deployed bool, data []byte) {
		c := receiver(t, framing(deployed), false, nil, data)
		// Drain until error or stream end; a fixed finite stream plus
		// hard errors on every malformed shape guarantees termination.
		for i := 0; i < 1<<10; i++ {
			if _, err := c.Recv(); err != nil {
				return
			}
		}
		t.Fatal("Recv never terminated over a finite stream")
	})
}

func TestIdentity(t *testing.T) {
	a, err := NewIdentity()
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewIdentity()
	if err != nil {
		t.Fatal(err)
	}
	if a.Fingerprint() == b.Fingerprint() || a.PublicKeyHex() == b.PublicKeyHex() {
		t.Fatal("two identities share a key")
	}
	if len(a.Fingerprint()) != 64 || len(a.PublicKeyHex()) != 64 {
		t.Fatalf("fingerprint %q / key %q are not 32-byte hex", a.Fingerprint(), a.PublicKeyHex())
	}
	if a.Fingerprint() != Fingerprint(a.Public()) {
		t.Fatal("Fingerprint() is not the hash of the public key")
	}
}
