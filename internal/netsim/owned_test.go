package netsim

import (
	"bytes"
	"errors"
	"io"
	"os"
	"runtime"
	"testing"
	"time"
)

// sameBuffer reports whether two non-empty slices start at the same byte.
func sameBuffer(a, b []byte) bool { return &a[0] == &b[0] }

// TestOwnedWriteExactRead is the ownership-transfer table: which chunk
// shapes WriteOwned/ReadExact hand over as they are, and which fall to
// the gathering path and still deliver the right bytes.
func TestOwnedWriteExactRead(t *testing.T) {
	const sender = "10.0.0.1"
	payload := func() []byte { return bytes.Repeat([]byte("segment-data-"), 64) }

	for _, tc := range []struct {
		name string
		run  func(t *testing.T, n *Network, ca, cb *Conn)
	}{
		{"exact_chunk_is_handed_over", func(t *testing.T, n *Network, ca, cb *Conn) {
			buf := payload()
			if sent, err := ca.WriteOwned(buf); err != nil || sent != len(buf) {
				t.Fatalf("WriteOwned = %d, %v", sent, err)
			}
			got, err := cb.ReadExact(len(buf))
			if err != nil || !bytes.Equal(got, payload()) {
				t.Fatalf("ReadExact: %d bytes, %v", len(got), err)
			}
			if !sameBuffer(got, buf) {
				t.Error("an exact-size owned chunk was copied on its way through the stream")
			}
		}},
		{"write_still_copies", func(t *testing.T, n *Network, ca, cb *Conn) {
			buf := payload()
			if _, err := ca.Write(buf); err != nil {
				t.Fatal(err)
			}
			buf[0] ^= 0xff // net/http reuses its buffers the moment Write returns
			got, err := cb.ReadExact(len(buf))
			if err != nil || !bytes.Equal(got, payload()) {
				t.Fatalf("ReadExact after the writer reused its buffer: %d bytes, %v", len(got), err)
			}
			if sameBuffer(got, buf) {
				t.Error("Write delivered the caller's buffer")
			}
		}},
		{"short_chunk_then_residual", func(t *testing.T, n *Network, ca, cb *Conn) {
			buf := payload()
			ca.WriteOwned(buf[:10:10])
			ca.WriteOwned(buf[10:])
			head, err := cb.ReadExact(4)
			if err != nil || !bytes.Equal(head, buf[:4]) {
				t.Fatalf("ReadExact(4) = %q, %v", head, err)
			}
			// 6 residual bytes, then the front of the next chunk.
			mid, err := cb.ReadExact(16)
			if err != nil || !bytes.Equal(mid, payload()[4:20]) {
				t.Fatalf("ReadExact(16) across the chunk boundary = %q, %v", mid, err)
			}
			mid[0] ^= 0xff // gathered into a fresh buffer: the residual is untouched
			rest, err := cb.ReadExact(len(buf) - 20)
			if err != nil || !bytes.Equal(rest, payload()[20:]) {
				t.Fatalf("ReadExact(rest): %d bytes, %v", len(rest), err)
			}
			if empty, err := cb.ReadExact(0); err != nil || len(empty) != 0 {
				t.Fatalf("ReadExact(0) = %q, %v; want nothing, at once", empty, err)
			}
		}},
		{"oversize_chunk_leaves_residual_for_read", func(t *testing.T, n *Network, ca, cb *Conn) {
			buf := payload()
			ca.WriteOwned(buf)
			head, err := cb.ReadExact(100)
			if err != nil || !bytes.Equal(head, payload()[:100]) {
				t.Fatalf("ReadExact(100): %d bytes, %v", len(head), err)
			}
			rest := make([]byte, len(buf)-100)
			if _, err := io.ReadFull(cb, rest); err != nil || !bytes.Equal(rest, payload()[100:]) {
				t.Fatalf("Read after ReadExact: %v", err)
			}
		}},
		{"truncated_chunk_gathers", func(t *testing.T, n *Network, ca, cb *Conn) {
			n.CorruptStreams(mustAddr(sender), 1, true)
			buf := payload()
			if sent, err := ca.WriteOwned(buf); err != nil || sent != len(buf) {
				t.Fatalf("WriteOwned = %d, %v; the sender never learns of the cut", sent, err)
			}
			n.ClearCorrupt(mustAddr(sender))
			fill := bytes.Repeat([]byte{0xee}, len(buf))
			ca.WriteOwned(fill)
			got, err := cb.ReadExact(len(buf))
			if err != nil {
				t.Fatal(err)
			}
			cut := bytes.IndexByte(got, 0xee)
			if cut <= 0 || !bytes.Equal(got[:cut], payload()[:cut]) || !bytes.Equal(got[cut:], fill[:len(got)-cut]) {
				t.Fatalf("ReadExact over a truncated chunk: cut at %d of %d", cut, len(got))
			}
			if sameBuffer(got, buf) {
				t.Error("a truncated chunk was handed over as if it were whole")
			}
		}},
		{"flipped_chunk_is_the_senders_buffer", func(t *testing.T, n *Network, ca, cb *Conn) {
			n.CorruptStreams(mustAddr(sender), 1, false)
			buf := payload()
			ca.WriteOwned(buf)
			got, err := cb.ReadExact(len(buf))
			if err != nil || len(got) != len(buf) {
				t.Fatalf("ReadExact: %d bytes, %v", len(got), err)
			}
			if bytes.Equal(got, payload()) {
				t.Fatal("corruption rule did not mutate the chunk")
			}
			// The flips land in the buffer the writer gave away — which is
			// why a writer must give away only a buffer it built to send.
			if !sameBuffer(got, buf) {
				t.Error("a byte-flipped owned chunk was copied")
			}
		}},
		{"read_deadline", func(t *testing.T, n *Network, ca, cb *Conn) {
			cb.SetReadDeadline(time.Now().Add(20 * time.Millisecond))
			if _, err := cb.ReadExact(8); !errors.Is(err, os.ErrDeadlineExceeded) {
				t.Fatalf("ReadExact on an idle stream: %v, want deadline exceeded", err)
			}
			ca.WriteOwned([]byte("abc"))
			cb.SetReadDeadline(time.Now().Add(20 * time.Millisecond))
			if _, err := cb.ReadExact(8); !errors.Is(err, os.ErrDeadlineExceeded) {
				t.Fatalf("ReadExact with 3 of 8 bytes delivered: %v, want deadline exceeded", err)
			}
		}},
		{"close_mid_read", func(t *testing.T, n *Network, ca, cb *Conn) {
			ca.WriteOwned([]byte("abc"))
			done := make(chan error, 1)
			go func() {
				_, err := cb.ReadExact(8)
				done <- err
			}()
			time.Sleep(10 * time.Millisecond)
			ca.Close()
			select {
			case err := <-done:
				if !errors.Is(err, io.ErrUnexpectedEOF) {
					t.Fatalf("ReadExact cut off after 3 of 8 bytes: %v, want unexpected EOF", err)
				}
			case <-time.After(5 * time.Second):
				t.Fatal("ReadExact still blocked after the peer closed")
			}
			if _, err := cb.ReadExact(8); !errors.Is(err, io.EOF) {
				t.Fatalf("ReadExact on a closed, drained stream: %v, want EOF", err)
			}
			if _, err := ca.WriteOwned([]byte("late")); !errors.Is(err, ErrClosed) {
				t.Fatalf("WriteOwned after close: %v, want ErrClosed", err)
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			n := New(Config{Seed: 3})
			ca, cb := dialPair(t, n, sender, "10.0.0.2")
			defer ca.Close()
			tc.run(t, n, ca, cb)
		})
	}
}

// TestOwnedTapSeesTheWireNotTheReader: the receiving host's capture is
// taken before the chunk is delivered, so a reader that rewrites the
// chunk it now owns (the record layer decrypts in place) cannot change
// what the capture recorded.
func TestOwnedTapSeesTheWireNotTheReader(t *testing.T) {
	n := New(Config{})
	ca, cb := dialPair(t, n, "10.0.0.1", "10.0.0.2")
	defer ca.Close()
	var captured []Packet
	cb.host.AddTap(func(p Packet) { captured = append(captured, p) })

	ca.WriteOwned([]byte("ciphertext"))
	got, err := cb.ReadExact(10)
	if err != nil {
		t.Fatal(err)
	}
	copy(got, "plaintext!")
	if len(captured) != 1 || captured[0].Dir != DirIn || string(captured[0].Payload) != "ciphertext" {
		t.Fatalf("receiver-side capture = %+v, want the one inbound chunk as it crossed the wire", captured)
	}
}

// TestSharedChunkIsNeverHandedOver: a Shared source's bytes cross the
// stream uncopied, so everything that would write a delivered chunk —
// ReadExact's hand-over, a corrupting link, the reader — gets a copy,
// and the source reads the same afterwards.
func TestSharedChunkIsNeverHandedOver(t *testing.T) {
	const sender = "10.0.0.1"
	payload := func() []byte { return bytes.Repeat([]byte("origin-memo-"), 64) }

	for _, tc := range []struct {
		name string
		run  func(t *testing.T, n *Network, ca, cb *Conn)
	}{
		{"exact_read_gathers", func(t *testing.T, n *Network, ca, cb *Conn) {
			src := payload()
			if sent, err := ca.ReadFrom(NewShared(src)); err != nil || sent != int64(len(src)) {
				t.Fatalf("ReadFrom = %d, %v", sent, err)
			}
			got, err := cb.ReadExact(len(src))
			if err != nil || !bytes.Equal(got, payload()) {
				t.Fatalf("ReadExact: %d bytes, %v", len(got), err)
			}
			if sameBuffer(got, src) {
				t.Error("ReadExact handed the reader a shared chunk")
			}
		}},
		{"flips_land_in_a_copy", func(t *testing.T, n *Network, ca, cb *Conn) {
			var wire []byte
			cb.host.AddTap(func(p Packet) { wire = p.Payload })
			n.CorruptStreams(mustAddr(sender), 1, false)
			src := payload()
			ca.ReadFrom(NewShared(src))
			got, err := cb.ReadExact(len(src))
			if err != nil || len(got) != len(src) {
				t.Fatalf("ReadExact: %d bytes, %v", len(got), err)
			}
			if bytes.Equal(got, payload()) {
				t.Fatal("corruption rule did not mutate the chunk")
			}
			if !bytes.Equal(src, payload()) {
				t.Error("a corrupting link flipped bytes in the shared source")
			}
			flipped := append([]byte(nil), got...)
			copy(got, "rewritten by the reader")
			if !bytes.Equal(wire, flipped) {
				t.Error("the receiver's capture is not the flipped chunk as it crossed the wire")
			}
		}},
		{"other_readers_still_copy", func(t *testing.T, n *Network, ca, cb *Conn) {
			buf := payload()
			if sent, err := ca.ReadFrom(io.LimitReader(bytes.NewReader(buf), 100)); err != nil || sent != 100 {
				t.Fatalf("ReadFrom(LimitReader) = %d, %v", sent, err)
			}
			buf[0] ^= 0xff // the caller may reuse its buffer once ReadFrom returns
			got := make([]byte, 100)
			if _, err := io.ReadFull(cb, got); err != nil || !bytes.Equal(got, payload()[:100]) {
				t.Fatalf("Read after the caller reused its buffer: %q, %v", got, err)
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			n := New(Config{Seed: 3})
			ca, cb := dialPair(t, n, sender, "10.0.0.2")
			defer ca.Close()
			tc.run(t, n, ca, cb)
		})
	}
}

// TestOwnedAllocBudget: a 256 KiB chunk crosses the stream through
// WriteOwned/ReadExact without a payload-sized allocation, through Write
// with exactly one, and from a Shared source with only the reader's.
func TestOwnedAllocBudget(t *testing.T) {
	const size = 256 << 10
	n := New(Config{})
	ca, cb := dialPair(t, n, "10.0.0.1", "10.0.0.2")
	defer ca.Close()

	perByte := func(send func(b []byte) error, recv func() error) float64 {
		const rounds = 8
		bufs := make([][]byte, rounds)
		for i := range bufs {
			bufs[i] = make([]byte, size)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for _, b := range bufs {
			if err := send(b); err != nil {
				t.Fatal(err)
			}
			if err := recv(); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&after)
		return float64(after.TotalAlloc-before.TotalAlloc) / (rounds * size)
	}
	owned := func(b []byte) error { _, err := ca.WriteOwned(b); return err }
	copied := func(b []byte) error { _, err := ca.Write(b); return err }
	shared := func(b []byte) error { _, err := ca.ReadFrom(NewShared(b)); return err }
	exact := func() error { _, err := cb.ReadExact(size); return err }
	read := func() error { _, err := io.ReadFull(cb, make([]byte, size)); return err }

	if got := perByte(owned, exact); got > 0.01 {
		t.Errorf("WriteOwned+ReadExact allocate %.3f B per payload byte, want < 0.01", got)
	}
	if got := perByte(copied, exact); got < 0.99 || got > 1.01 {
		t.Errorf("Write+ReadExact allocate %.3f B per payload byte, want 1 (Write's copy)", got)
	}
	if got := perByte(shared, read); got < 0.99 || got > 1.01 {
		t.Errorf("ReadFrom(Shared)+Read allocate %.3f B per payload byte, want 1 (the reader's buffer)", got)
	}
}
