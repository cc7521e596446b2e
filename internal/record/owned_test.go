package record

import (
	"bytes"
	"encoding/binary"
	"errors"
	"net"
	"net/netip"
	"runtime"
	"testing"

	"github.com/stealthy-peers/pdnsec/internal/netsim"
)

// wrapped hides everything but net.Conn, as mitm.TamperConn does: a
// channel over it takes the Write/io.ReadFull path.
type wrapped struct{ net.Conn }

// ioPaths are the two final I/O calls under Send and Recv.
var ioPaths = []struct {
	name string
	wrap bool
}{{"netsim_pair", false}, {"wrapped_conn", true}}

// channel returns both ends of a channel over a fresh netsim.Pair.
func channel(tb testing.TB, f Framing, wrap bool) (ini, rsp *Conn) {
	tb.Helper()
	n := netsim.New(netsim.Config{})
	a := n.MustHost(netip.MustParseAddr("10.0.0.1"))
	b := n.MustHost(netip.MustParseAddr("10.0.0.2"))
	ra, rb := netsim.Pair(a, b, netip.MustParseAddrPort("10.0.0.1:9"), netip.MustParseAddrPort("10.0.0.2:9"))
	tb.Cleanup(func() { ra.Close() })
	var ca, cb net.Conn = ra, rb
	if wrap {
		ca, cb = wrapped{ra}, wrapped{rb}
	}
	ini, err := New(ca, f, testSecret, true, nil, nil)
	if err != nil {
		tb.Fatal(err)
	}
	rsp, err = New(cb, f, testSecret, false, nil, nil)
	if err != nil {
		tb.Fatal(err)
	}
	if (ini.owned == nil) != wrap || (rsp.owned == nil) != wrap {
		tb.Fatalf("wrap=%v but ownedIO discovered: %v/%v", wrap, ini.owned != nil, rsp.owned != nil)
	}
	return ini, rsp
}

// allocated returns the bytes fn allocates per payload byte.
func allocated(payload int, fn func()) float64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(payload)
}

// TestAllocBudget pins what one 256 KiB segment costs a hop: the sender
// allocates it once (the record buffer it gathers into and seals in
// place), the stream hands that buffer over, and the receiver opens it
// in place and returns it. A wrapped conn pays its own copies — Write's
// on the way in, the read buffer on the way out — and nothing more.
func TestAllocBudget(t *testing.T) {
	const size = 256 << 10
	const rounds = 8
	for _, tc := range framings {
		for _, path := range ioPaths {
			t.Run(tc.name+"/"+path.name, func(t *testing.T) {
				ini, rsp := channel(t, tc.f, path.wrap)
				hdr, payload := []byte(`{"op":"segment"}`), make([]byte, size)
				var send, recv float64
				for i := 0; i < rounds; i++ {
					send += allocated(size, func() {
						if err := ini.SendParts(hdr, []byte{0}, payload); err != nil {
							t.Fatal(err)
						}
					})
					recv += allocated(size, func() {
						if got, err := rsp.Recv(); err != nil || len(got) != len(hdr)+1+size {
							t.Fatalf("Recv: %d bytes, %v", len(got), err)
						}
					})
				}
				send, recv = send/rounds, recv/rounds
				sendMax, recvMax := 1.1, 0.1
				if path.wrap {
					sendMax, recvMax = 2.1, 1.1
				}
				if send >= sendMax {
					t.Errorf("Send allocates %.3f B per payload byte, want < %.1f", send, sendMax)
				}
				if recv >= recvMax {
					t.Errorf("Recv allocates %.3f B per payload byte, want < %.1f", recv, recvMax)
				}
			})
		}
	}
}

// TestOwnedBuffersAreNotShared: handing buffers over must not let one
// side's later writes reach the other. Send does not retain msg (a
// caller may refill one buffer between calls), and the buffer Recv
// returns is the caller's alone — the segment cache keeps it for the
// rest of the session.
func TestOwnedBuffersAreNotShared(t *testing.T) {
	for _, tc := range framings {
		for _, path := range ioPaths {
			t.Run(tc.name+"/"+path.name, func(t *testing.T) {
				ini, rsp := channel(t, tc.f, path.wrap)
				msg := bytes.Repeat([]byte{'a'}, 4096)
				if err := ini.Send(msg); err != nil {
					t.Fatal(err)
				}
				for i := range msg {
					msg[i] = 'b'
				}
				if err := ini.Send(msg); err != nil {
					t.Fatal(err)
				}
				for i := range msg {
					msg[i] = 'c'
				}
				first, err := rsp.Recv()
				if err != nil || !bytes.Equal(first, bytes.Repeat([]byte{'a'}, 4096)) {
					t.Fatalf("first message after the sender refilled its buffer: %.8q…, %v", first, err)
				}
				for full, i := first[:cap(first)], 0; i < len(full); i++ {
					full[i] = 'x' // the tag's room behind the plaintext too
				}
				second, err := rsp.Recv()
				if err != nil || !bytes.Equal(second, bytes.Repeat([]byte{'b'}, 4096)) {
					t.Fatalf("second message after the receiver overwrote the first: %.8q…, %v", second, err)
				}
				if !bytes.Equal(msg, bytes.Repeat([]byte{'c'}, 4096)) {
					t.Fatal("the receiver's writes reached the sender's buffer")
				}
			})
		}
	}
}

// TestSendPartsMatchesSend: gathering is invisible on the wire — the
// records of SendParts(parts...) are byte for byte those of Send on the
// parts' concatenation, wherever the part boundaries fall (inside a
// record, on a record boundary, empty parts) — and the caller's parts
// are left as they were.
func TestSendPartsMatchesSend(t *testing.T) {
	big := bytes.Repeat([]byte("0123456789abcdef"), (maxRecord+4096)/16)
	for _, tc := range framings {
		t.Run(tc.name, func(t *testing.T) {
			for _, parts := range [][][]byte{
				{},
				{nil},
				{[]byte("hdr"), {0}, []byte("payload")},
				{nil, []byte("a"), {}, []byte("b"), nil},
				{[]byte("hdr"), {0}, big},          // a part straddles the record boundary
				{big[:maxRecord], big[maxRecord:]}, // a boundary on the record boundary
				{big[:maxRecord-1], {0}, big[maxRecord:], {1, 2}}, // a one-byte part fills the record
			} {
				before := make([][]byte, len(parts))
				copy(before, parts)
				joined := bytes.Join(parts, nil)

				w := &wireConn{in: bytes.NewReader(nil)}
				c, err := New(w, tc.f, testSecret, true, nil, nil)
				if err != nil {
					t.Fatal(err)
				}
				if err := c.SendParts(parts...); err != nil {
					t.Fatal(err)
				}
				if want := seal(t, tc.f, nil, joined); !bytes.Equal(w.out.Bytes(), want) {
					t.Fatalf("%d parts, %d bytes: wire image differs from Send of the concatenation", len(parts), len(joined))
				}
				for i := range parts {
					if !bytes.Equal(parts[i], before[i]) || len(parts[i]) != len(before[i]) {
						t.Fatalf("SendParts changed the caller's part %d", i)
					}
				}
				got, err := receiver(t, tc.f, false, nil, w.out.Bytes()).Recv()
				if err != nil || !bytes.Equal(got, joined) {
					t.Fatalf("%d parts: Recv: %d bytes, %v", len(parts), len(got), err)
				}
			}
		})
	}
}

// TestOwnedMultiRecordRoundTrip: a 3 MiB message (the paper's Table VI
// segment size) splits, crosses and reassembles on both I/O paths, and
// the channel carries on after it.
func TestOwnedMultiRecordRoundTrip(t *testing.T) {
	big := bytes.Repeat([]byte{0xab}, 3*maxRecord)
	copy(big, "head")
	copy(big[len(big)-4:], "tail")
	for _, tc := range framings {
		for _, path := range ioPaths {
			t.Run(tc.name+"/"+path.name, func(t *testing.T) {
				ini, rsp := channel(t, tc.f, path.wrap)
				if err := ini.SendParts(big[:100], big[100:]); err != nil {
					t.Fatal(err)
				}
				if err := ini.Send([]byte("next")); err != nil {
					t.Fatal(err)
				}
				got, err := rsp.Recv()
				if err != nil || !bytes.Equal(got, big) {
					t.Fatalf("3 MiB message: %d bytes, %v", len(got), err)
				}
				if got, err := rsp.Recv(); err != nil || string(got) != "next" {
					t.Fatalf("message after a multi-record one: %q, %v", got, err)
				}
			})
		}
	}
}

// sealSplit returns the wire image of one message the initiator sent as
// one record per chunk — what Send does to a message over 1 MiB, at a
// size a fuzz corpus can carry.
func sealSplit(tb testing.TB, f Framing, chunks ...[]byte) []byte {
	tb.Helper()
	w := &wireConn{in: bytes.NewReader(nil)}
	c, err := New(w, f, testSecret, true, nil, nil)
	if err != nil {
		tb.Fatal(err)
	}
	for i, chunk := range chunks {
		var flags byte
		if i == len(chunks)-1 {
			flags = FlagFinal
		}
		var nonce [12]byte
		binary.BigEndian.PutUint64(nonce[4:], uint64(i))
		if err := WriteRecord(w, f.Data, flags, uint64(i), c.sendAEAD.Seal(nil, nonce[:], chunk, nil)); err != nil {
			tb.Fatal(err)
		}
	}
	return w.out.Bytes()
}

// TestSplitMessageReassembles checks sealSplit's images mean what the
// fuzz seeds built from them assume.
func TestSplitMessageReassembles(t *testing.T) {
	for _, tc := range framings {
		t.Run(tc.name, func(t *testing.T) {
			wire := sealSplit(t, tc.f, []byte("seg"), []byte("ment"), []byte("!"))
			if got, err := receiver(t, tc.f, false, nil, wire).Recv(); err != nil || string(got) != "segment!" {
				t.Fatalf("three-record message: %q, %v", got, err)
			}
			_, payloads := records(t, tc.f.Data, wire)
			cut := wire[:len(wire)-len(payloads[2])-len(tc.f.Data)-tailLen]
			if got, err := receiver(t, tc.f, false, nil, cut).Recv(); err == nil {
				t.Fatalf("message missing its final record: %q, want an error", got)
			}
			wire[len(wire)-1] ^= 0xff
			if got, err := receiver(t, tc.f, false, nil, wire).Recv(); !errors.Is(err, ErrDecrypt) || got != nil {
				t.Fatalf("tampered final record: %q, %v, want ErrDecrypt and no partial message", got, err)
			}
		})
	}
}
