package record

import (
	"bytes"
	"encoding/binary"
	"errors"
	"net"
	"net/netip"
	"runtime"
	"runtime/debug"
	"sync"
	"testing"

	"github.com/stealthy-peers/pdnsec/internal/capture"
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

// stream is a fresh two-host network and a netsim.Pair between them.
type stream struct {
	net    *netsim.Network
	a, b   *netsim.Host
	ra, rb *netsim.Conn
}

func newStream(tb testing.TB) stream {
	tb.Helper()
	s := stream{net: netsim.New(netsim.Config{})}
	s.a = s.net.MustHost(netip.MustParseAddr("10.0.0.1"))
	s.b = s.net.MustHost(netip.MustParseAddr("10.0.0.2"))
	s.ra, s.rb = netsim.Pair(s.a, s.b, netip.MustParseAddrPort("10.0.0.1:9"), netip.MustParseAddrPort("10.0.0.2:9"))
	tb.Cleanup(func() { s.ra.Close() })
	return s
}

// channel returns both ends of a channel over a fresh netsim.Pair.
func channel(tb testing.TB, f Framing, wrap bool) (ini, rsp *Conn) {
	tb.Helper()
	return channelOver(tb, newStream(tb), f, wrap)
}

// channelOver returns both ends of a channel over s.
func channelOver(tb testing.TB, s stream, f Framing, wrap bool) (ini, rsp *Conn) {
	tb.Helper()
	var ca, cb net.Conn = s.ra, s.rb
	if wrap {
		ca, cb = wrapped{s.ra}, wrapped{s.rb}
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

// allocs sums what the calls given to add allocate.
type allocs struct{ count, bytes uint64 }

func (a *allocs) add(fn func()) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	a.count += after.Mallocs - before.Mallocs
	a.bytes += after.TotalAlloc - before.TotalAlloc
}

// withoutGC collects once and turns the collector off for the rest of
// the test: at most 32 × 256 KiB records per row, times three for a
// wrapped conn's copies, pile up until it is back on.
func withoutGC(t *testing.T) {
	runtime.GC()
	old := debug.SetGCPercent(-1)
	t.Cleanup(func() { debug.SetGCPercent(old) })
}

// TestAllocBudget pins what one 256 KiB segment costs a hop: the sender
// allocates it once (the record buffer it seals into from the caller's
// bytes), the stream hands that buffer over, header and payload, and the
// receiver reads the header into the Conn's own array, opens the payload
// in place and returns it. Over the netsim pair that is one allocation
// per message on the send side and none on the receive side. A wrapped
// conn pays its own copies — Write's on the way in, the read buffer on
// the way out — and nothing more. A receiver that opens each message
// into a buffer of its own hands the record buffer back, and past the
// first message neither side allocates.
//
// A GC that lands in a counted window brings the runtime's own
// allocations into the count (the unique package's sweep of interned
// netip zones, up to ~20 of them), so each row counts over 32 messages
// with the collector off, after one collection.
func TestAllocBudget(t *testing.T) {
	const size = 256 << 10
	const rounds = 32
	for _, tc := range framings {
		for _, path := range ioPaths {
			t.Run(tc.name+"/"+path.name, func(t *testing.T) {
				ini, rsp := channel(t, tc.f, path.wrap)
				payload := make([]byte, size)
				withoutGC(t)
				var send, recv allocs
				for i := 0; i < rounds; i++ {
					send.add(func() {
						if err := ini.Send(payload); err != nil {
							t.Fatal(err)
						}
					})
					recv.add(func() {
						if got, err := rsp.Recv(); err != nil || len(got) != size {
							t.Fatalf("Recv: %d bytes, %v", len(got), err)
						}
					})
				}
				sendMax, recvMax := 1.1, 0.1
				if path.wrap {
					sendMax, recvMax = 2.1, 1.1
				}
				if got := float64(send.bytes) / (rounds * size); got >= sendMax {
					t.Errorf("Send allocates %.3f B per payload byte, want < %.1f", got, sendMax)
				}
				if got := float64(recv.bytes) / (rounds * size); got >= recvMax {
					t.Errorf("Recv allocates %.3f B per payload byte, want < %.1f", got, recvMax)
				}
				// Half an allocation per message of slack for the runtime's own.
				if !path.wrap && (2*send.count >= 3*rounds || 2*recv.count >= rounds) {
					t.Errorf("%d messages: Send made %d allocations, Recv %d; want one per message and none",
						rounds, send.count, recv.count)
				}
			})
		}
		t.Run(tc.name+"/netsim_pair_into_own_buffer", func(t *testing.T) {
			ini, rsp := channel(t, tc.f, false)
			payload, dst := make([]byte, size), make([]byte, size)
			withoutGC(t)
			var send, recv allocs
			for i := 0; i <= rounds; i++ {
				if i == 1 {
					send, recv = allocs{}, allocs{} // the first message's record buffer is the one that goes round
				}
				send.add(func() {
					if err := ini.Send(payload); err != nil {
						t.Fatal(err)
					}
				})
				recv.add(func() {
					if got, err := rsp.RecvInto(dst); err != nil || len(got) != size || &got[0] != &dst[0] {
						t.Fatalf("RecvInto: %d bytes, %v; want the message in dst", len(got), err)
					}
				})
			}
			// None of them is the code's: the slack, half an allocation
			// per message and a hundredth of a byte per payload byte, is
			// for what the runtime allocates behind a GC that lands in the
			// window (the unique package's sweep of interned netip zones).
			// A record buffer per message is one allocation and 1 B/B.
			if 2*send.count >= rounds || 2*recv.count >= rounds || float64(send.bytes+recv.bytes)/(rounds*size) >= 0.01 {
				t.Errorf("%d messages after the first: Send made %d allocations (%d B), RecvInto %d (%d B); want none",
					rounds, send.count, send.bytes, recv.count, recv.bytes)
			}
		})
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

// TestSendNeverWritesTheMessage: Send seals from the caller's bytes
// into buffers of its own, so the message — and the spare capacity
// behind it, where a sealing in place would put the tag — reads the same
// afterwards, at every record boundary, and the records carry it intact.
func TestSendNeverWritesTheMessage(t *testing.T) {
	big := bytes.Repeat([]byte("0123456789abcdef"), (2*maxRecord+4096)/16)
	for _, tc := range framings {
		for _, path := range ioPaths {
			t.Run(tc.name+"/"+path.name, func(t *testing.T) {
				ini, rsp := channel(t, tc.f, path.wrap)
				for _, n := range []int{0, 1, maxRecord - 1, maxRecord, maxRecord + 1, 2*maxRecord + 7} {
					backing := append([]byte(nil), big[:n+64]...)
					msg := backing[:n]
					if err := ini.Send(msg); err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(backing, big[:n+64]) {
						t.Fatalf("%d-byte message: Send wrote the caller's buffer", n)
					}
					got, err := rsp.Recv()
					if err != nil || !bytes.Equal(got, big[:n]) {
						t.Fatalf("%d-byte message: Recv: %d bytes, %v", n, len(got), err)
					}
				}
			})
		}
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
				if err := ini.Send(big); err != nil {
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

// recordStream is a wire that seals the initiator's records as the
// receiver reads them — nonFinal records of maxRecord bytes, then a
// final one of last bytes — so a test can stream a message past maxMessage
// without holding its wire image.
type recordStream struct {
	wireConn
	c        *Conn
	buf      bytes.Buffer
	chunk    []byte
	next     int
	nonFinal int
	last     int
}

func (s *recordStream) Read(p []byte) (int, error) {
	if s.buf.Len() == 0 && s.next <= s.nonFinal {
		flags, chunk := byte(0), s.chunk
		if s.next == s.nonFinal {
			flags, chunk = FlagFinal, chunk[:s.last]
		}
		var nonce [12]byte
		binary.BigEndian.PutUint64(nonce[4:], uint64(s.next))
		if err := WriteRecord(&s.buf, s.c.prefix, flags, uint64(s.next), s.c.sendAEAD.Seal(nil, nonce[:], chunk, nil)); err != nil {
			return 0, err
		}
		s.next++
	}
	return s.buf.Read(p)
}

// TestRecvBoundsReassembly: a peer that streams non-final records must
// not grow its neighbor's memory without end. A message of exactly
// maxMessage bytes still arrives; one byte more fails at the header of
// the record that would pass the bound, before its payload is read.
func TestRecvBoundsReassembly(t *testing.T) {
	// The message under test is 64 MiB: collect the records and the
	// outgrown reassembly buffers early rather than at twice that.
	defer debug.SetGCPercent(debug.SetGCPercent(10))
	for _, tc := range framings {
		t.Run(tc.name, func(t *testing.T) {
			ini, err := New(&wireConn{}, tc.f, testSecret, true, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			chunk := bytes.Repeat([]byte{0xab}, maxRecord)
			stream := func(nonFinal, last int) (*recordStream, *Conn) {
				s := &recordStream{c: ini, chunk: chunk, nonFinal: nonFinal, last: last}
				rsp, err := New(s, tc.f, testSecret, false, nil, nil)
				if err != nil {
					t.Fatal(err)
				}
				return s, rsp
			}

			_, rsp := stream(maxMessage/maxRecord-1, maxRecord)
			if got, err := rsp.Recv(); err != nil || len(got) != maxMessage {
				t.Fatalf("message under the bound: %d bytes, %v", len(got), err)
			}

			s, rsp := stream(maxMessage/maxRecord, 1)
			got, err := rsp.Recv()
			if !errors.Is(err, ErrMessageTooLarge) || got != nil {
				t.Fatalf("message of maxMessage+1 bytes: %d bytes, %v; want ErrMessageTooLarge", len(got), err)
			}
			if want := 1 + ini.sendAEAD.Overhead(); s.buf.Len() != want {
				t.Fatalf("%d bytes of the offending record read past its header, want none (%d unread)", want-s.buf.Len(), want)
			}
		})
	}
}

// TestOwnedTapsKeepTheWire: a sender that seals each record into the
// buffer its receiver handed back rewrites bytes both hosts' capture
// taps saw cross the wire, so the taps keep copies. Each host's capture
// still holds every record as it was sent — each one opens to its
// message — and every record starts with its framing's prefix: on the
// deployed framing, the DTLS application-data header the paper's dynamic
// detector fingerprints (capture.IsDTLSRecord); on the secure one, not.
func TestOwnedTapsKeepTheWire(t *testing.T) {
	const msgs, size = 8, 64 << 10
	for _, tc := range framings {
		t.Run(tc.name, func(t *testing.T) {
			s := newStream(t)
			// The taps keep each payload they are given, as a capture does.
			var mu sync.Mutex
			var sent, received [][]byte
			s.a.AddTap(func(p netsim.Packet) {
				mu.Lock()
				defer mu.Unlock()
				if p.Dir == netsim.DirOut {
					sent = append(sent, p.Payload)
				}
			})
			s.b.AddTap(func(p netsim.Packet) {
				mu.Lock()
				defer mu.Unlock()
				if p.Dir == netsim.DirIn {
					received = append(received, p.Payload)
				}
			})
			ini, rsp := channelOver(t, s, tc.f, false)
			msg := func(i int) []byte { return bytes.Repeat([]byte{byte('a' + i)}, size) }
			dst := make([]byte, size)
			for i := 0; i < msgs; i++ {
				if err := ini.Send(msg(i)); err != nil {
					t.Fatal(err)
				}
				if got, err := rsp.RecvInto(dst); err != nil || !bytes.Equal(got, msg(i)) {
					t.Fatalf("message %d: %.8q…, %v", i, got, err)
				}
			}
			if back := s.ra.Reclaim(0, 1<<30); back == nil {
				t.Fatal("the last record's buffer did not come back: nothing was reused")
			}
			mu.Lock()
			defer mu.Unlock()
			for host, packets := range map[string][][]byte{"sender": sent, "receiver": received} {
				wire := bytes.Join(packets, nil)
				hdrs, _ := records(t, tc.f.Data, wire)
				if len(hdrs) != msgs {
					t.Fatalf("%s capture holds %d records, want %d", host, len(hdrs), msgs)
				}
				for i, hdr := range hdrs {
					handshake, ok := capture.IsDTLSRecord(hdr)
					if want := tc.f == dtlsFraming; ok != want || handshake {
						t.Errorf("%s capture, record %d: IsDTLSRecord = %v, %v; want %v, false", host, i, handshake, ok, want)
					}
				}
				c := receiver(t, tc.f, false, nil, wire)
				for i := 0; i < msgs; i++ {
					if got, err := c.Recv(); err != nil || !bytes.Equal(got, msg(i)) {
						t.Fatalf("%s capture, record %d: opens to %.8q…, %v; want its message", host, i, got, err)
					}
				}
			}
		})
	}
}

// TestOwnedCorruptRecordComesBack: a record whose payload a corrupting
// link flipped fails to open into the receiver's buffer — a hard
// ErrDecrypt, as it is in place — and its buffer still goes back to the
// sender, whole.
func TestOwnedCorruptRecordComesBack(t *testing.T) {
	for _, tc := range framings {
		t.Run(tc.name, func(t *testing.T) {
			s := newStream(t)
			ini, rsp := channelOver(t, s, tc.f, false)
			// The header crosses intact (the stream mangles a chunk before
			// the sender's tap sees it); every chunk after it is flipped.
			var once sync.Once
			s.a.AddTap(func(netsim.Packet) {
				once.Do(func() { s.net.CorruptStreams(netip.MustParseAddr("10.0.0.1"), 1, false) })
			})
			msg := bytes.Repeat([]byte{'x'}, 4096)
			if err := ini.Send(msg); err != nil {
				t.Fatal(err)
			}
			dst := make([]byte, len(msg))
			if got, err := rsp.RecvInto(dst); !errors.Is(err, ErrDecrypt) || got != nil {
				t.Fatalf("flipped record: %d bytes, %v; want ErrDecrypt and nothing", len(got), err)
			}
			want := len(msg) + tc.overhead
			if back := s.ra.Reclaim(0, 1<<30); len(back) != want {
				t.Errorf("the sender reclaimed %d bytes, want the whole %d-byte record buffer back", len(back), want)
			}
		})
	}
}
