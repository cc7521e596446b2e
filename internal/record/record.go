// Package record is the one AES-GCM record layer under both P2P
// transports. internal/dtls (the deployed profiles' anonymous channel)
// and internal/secure (the authenticated swarm transport) run their own
// handshakes and then hand a shared secret to New; everything after the
// handshake — per-direction keys, 1 MiB record splitting and
// reassembly, sequence-as-nonce sealing, the strict sequence check — is
// this package.
//
// A record is a plaintext header followed by a payload:
//
//	prefix | seq(8) | flags(1) | len(4) | payload
//
// The prefix is all that differs between the transports on the wire.
// The deployed framing uses the real (D)TLS code points
// {0x16|0x17, 0xfe, 0xfd} — the fingerprint the paper's dynamic
// detector (capture.IsDTLSRecord) looks for; the secure framing is a
// bare type byte, a deliberately distinct protocol.
package record

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
)

// Errors returned by the record layer.
var (
	ErrRecordTooLarge  = errors.New("record: record exceeds size limit")
	ErrDecrypt         = errors.New("record: record authentication failed")
	ErrReplay          = errors.New("record: record sequence replayed or reordered")
	ErrBadPrefix       = errors.New("record: unexpected record type")
	ErrMessageTooLarge = errors.New("record: message exceeds size limit")
)

// Framing is a transport's pair of record-header prefixes. Both have
// the same length.
type Framing struct {
	Handshake string // precedes the handshake messages' headers
	Data      string // precedes every sealed record's header
}

// FlagFinal marks the last record of a message.
const FlagFinal byte = 1

// maxRecord bounds one record's plaintext; Send splits larger messages
// and the peer's Recv reassembles them.
const maxRecord = 1 << 20

// maxMessage bounds one reassembled message's plaintext, as
// pdnclient's maxHTTPBody bounds a CDN body: without it any connected
// peer could grow its neighbor's memory with an endless run of
// non-final records.
const maxMessage = 64 << 20

// tailLen is the header after the prefix: seq(8) | flags(1) | len(4).
const tailLen = 8 + 1 + 4

// putHeader fills hdr, len(prefix)+tailLen bytes, for a payload of n bytes.
func putHeader(hdr []byte, prefix string, flags byte, seq uint64, n int) {
	tail := hdr[copy(hdr, prefix):]
	binary.BigEndian.PutUint64(tail[0:8], seq)
	tail[8] = flags
	binary.BigEndian.PutUint32(tail[9:13], uint32(n))
}

// WriteRecord writes one record: the header, then the payload, as two
// writes (on netsim each write is one captured packet, so every record
// starts a packet with its prefix).
func WriteRecord(w io.Writer, prefix string, flags byte, seq uint64, payload []byte) error {
	if len(payload) > maxRecord+64 {
		return ErrRecordTooLarge
	}
	hdr := make([]byte, len(prefix)+tailLen)
	putHeader(hdr, prefix, flags, seq, len(payload))
	if _, err := w.Write(hdr); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// readHeader reads one record header into hdr, len(prefix)+tailLen
// bytes, requires it to start with prefix, and checks the length field
// against limit, so that a caller allocates (or waits for) the payload
// only after both hold.
func readHeader(r io.Reader, hdr []byte, prefix string, limit int) (flags byte, seq uint64, n int, err error) {
	if _, err = io.ReadFull(r, hdr); err != nil {
		return 0, 0, 0, err
	}
	if string(hdr[:len(prefix)]) != prefix {
		return 0, 0, 0, fmt.Errorf("%w 0x%02x", ErrBadPrefix, hdr[0])
	}
	tail := hdr[len(prefix):]
	size := binary.BigEndian.Uint32(tail[9:13])
	if uint64(size) > uint64(limit) {
		return 0, 0, 0, ErrRecordTooLarge
	}
	return tail[8], binary.BigEndian.Uint64(tail[0:8]), int(size), nil
}

// ReadRecord reads one record of at most limit payload bytes and
// requires its header to start with prefix. The length field is checked
// before the payload is read, so a header announcing more than the
// caller accepts fails at once instead of waiting for bytes the sender
// never sends.
func ReadRecord(r io.Reader, prefix string, limit int) (flags byte, seq uint64, payload []byte, err error) {
	flags, seq, n, err := readHeader(r, make([]byte, len(prefix)+tailLen), prefix, limit)
	if err != nil {
		return 0, 0, nil, err
	}
	if payload, err = readN(r, n); err != nil {
		return 0, 0, nil, err
	}
	return flags, seq, payload, nil
}

// readN reads exactly n bytes into a new buffer.
func readN(r io.Reader, n int) ([]byte, error) {
	buf := make([]byte, n)
	if _, err := io.ReadFull(r, buf); err != nil {
		return nil, err
	}
	return buf, nil
}

// ownedIO is the ownership-transfer I/O a *netsim.Conn offers beside
// Write and Read: WriteOwned delivers the caller's slice itself, and
// ReadExact hands a delivered chunk of exactly n bytes to the reader as
// is. HandBack returns such a chunk to its writer once the reader is
// done with it, and Reclaim takes it back on the writer's side. Over it
// a sealed record crosses the stream without being copied and, opened
// into a buffer of the receiver's, goes back to be sealed into again;
// over any other conn (a wrapper such as mitm.TamperConn) the same bytes
// go through Write and io.ReadFull.
type ownedIO interface {
	WriteOwned(b []byte) (int, error)
	ReadExact(n int) ([]byte, error)
	HandBack(b []byte)
	Reclaim(min, max int) []byte
}

// Conn is an established channel. It is message-oriented: one Send is
// one Recv on the peer (possibly several records on the wire). Conn is
// safe for one concurrent sender and one concurrent receiver.
type Conn struct {
	raw       net.Conn
	owned     ownedIO // raw's ownership-transfer I/O; nil when raw has none
	prefix    string
	sendAEAD  cipher.AEAD
	recvAEAD  cipher.AEAD
	onEncrypt func(int)
	onDecrypt func(int)

	// Each direction's nonce and the header Recv reads live here, under
	// their direction's lock: a stack array handed to the AEAD interface
	// or the reader would escape, one allocation per record.
	sendMu    sync.Mutex
	sendSeq   uint64
	sendNonce [12]byte
	// sendBuf is a record buffer the next record may be sealed into:
	// over a copying conn, the one every record reuses; over an ownedIO
	// conn, nil, as a record's buffer is the receiver's until it comes
	// back through Reclaim.
	sendBuf   []byte
	recvMu    sync.Mutex
	recvSeq   uint64
	recvNonce [12]byte
	recvHdr   []byte
}

// New builds the channel over raw from the handshake's shared secret,
// deriving one AES-128 key per direction. onEncrypt and onDecrypt, when
// non-nil, are called with each record's plaintext byte count — the
// resource monitor prices the two directions differently.
func New(raw net.Conn, f Framing, secret []byte, initiator bool, onEncrypt, onDecrypt func(int)) (*Conn, error) {
	i2r, err := newAEAD(secret, "i2r")
	if err != nil {
		return nil, err
	}
	r2i, err := newAEAD(secret, "r2i")
	if err != nil {
		return nil, err
	}
	c := &Conn{raw: raw, prefix: f.Data, sendAEAD: i2r, recvAEAD: r2i, onEncrypt: onEncrypt, onDecrypt: onDecrypt,
		recvHdr: make([]byte, len(f.Data)+tailLen)}
	if !initiator {
		c.sendAEAD, c.recvAEAD = r2i, i2r
	}
	c.owned, _ = raw.(ownedIO)
	return c, nil
}

func newAEAD(secret []byte, dir string) (cipher.AEAD, error) {
	h := sha256.New()
	h.Write(secret)
	h.Write([]byte(dir))
	block, err := aes.NewCipher(h.Sum(nil)[:16])
	if err != nil {
		return nil, fmt.Errorf("record: aes: %w", err)
	}
	aead, err := cipher.NewGCM(block)
	if err != nil {
		return nil, fmt.Errorf("record: gcm: %w", err)
	}
	return aead, nil
}

// Send encrypts and transmits one message. It neither retains nor
// writes msg.
//
// Each record is sealed from msg straight into one buffer that holds
// the whole record, ciphertext | tag | header: that buffer is the only
// copy of the payload the send side makes. Over an ownedIO conn it is
// handed over, and it comes back when the peer opens the record into a
// buffer of its own (RecvInto); over any other conn Write copies it, so
// the next record reuses it at once.
func (c *Conn) Send(msg []byte) error {
	c.sendMu.Lock()
	defer c.sendMu.Unlock()
	hl := len(c.prefix) + tailLen
	for {
		n, flags := len(msg), FlagFinal
		if n > maxRecord {
			n, flags = maxRecord, 0
		}
		sl := n + c.sendAEAD.Overhead()
		buf := c.sealBuf(sl + hl)
		binary.BigEndian.PutUint64(c.sendNonce[4:], c.sendSeq)
		sealed := c.sendAEAD.Seal(buf[:0], c.sendNonce[:], msg[:n], nil)
		msg = msg[n:]
		if c.onEncrypt != nil {
			c.onEncrypt(n)
		}
		hdr := buf[sl : sl+hl : sl+hl]
		putHeader(hdr, c.prefix, flags, c.sendSeq, sl)
		if err := c.writeRecord(hdr, sealed); err != nil {
			return fmt.Errorf("record: send: %w", err)
		}
		c.sendSeq++
		if flags == FlagFinal {
			return nil
		}
	}
}

// sealBuf returns a buffer of n bytes for Send to build a record in.
// Over an ownedIO conn that is the buffer the peer handed back when the
// record fills at least half of it, so a frame header never takes the
// buffer a segment body comes back in, and a new one otherwise.
func (c *Conn) sealBuf(n int) []byte {
	if c.owned != nil {
		if b := c.owned.Reclaim(n, 2*n); b != nil {
			return b[:n]
		}
		return make([]byte, n)
	}
	if cap(c.sendBuf) < n {
		c.sendBuf = make([]byte, n)
	}
	return c.sendBuf[:n]
}

// writeRecord writes a record Send built, as WriteRecord's two writes:
// the header, then the sealed payload. Over an ownedIO conn both are
// handed over as chunks of the record's buffer, the header capped at
// its end; the payload's capacity spans the whole buffer, so the buffer
// comes back whole. Over any other conn Write copies them.
func (c *Conn) writeRecord(hdr, sealed []byte) (err error) {
	if c.owned != nil {
		if _, err = c.owned.WriteOwned(hdr); err == nil {
			_, err = c.owned.WriteOwned(sealed)
		}
		return err
	}
	if _, err = c.raw.Write(hdr); err == nil {
		_, err = c.raw.Write(sealed)
	}
	return err
}

// Recv reads and decrypts the next message; the caller owns the result.
// It is RecvInto with no buffer of the caller's.
func (c *Conn) Recv() ([]byte, error) { return c.RecvInto(nil) }

// RecvInto reads and decrypts the next message; the caller owns the
// result. A message of one record whose plaintext fits in cap(dst) is
// opened into dst and returned as dst[:n]; over an ownedIO conn the
// sealed record then goes back to the sender to seal a later record
// into, even when it fails to open. Otherwise, and always for a nil
// dst, each record is opened in place and a message of one record is
// returned as that buffer; only a message Send had to split is
// reassembled, and never past maxMessage: a record that would take it
// there fails the message before its payload is read.
//
// The sequence check is strict: a replayed, reordered, or dropped
// record is a hard error, never silently skipped — the nonce doubles as
// the sequence number, so accepting a replay would both break the
// anti-replay property and reuse a nonce.
func (c *Conn) RecvInto(dst []byte) ([]byte, error) {
	c.recvMu.Lock()
	defer c.recvMu.Unlock()
	var out []byte
	overhead := c.recvAEAD.Overhead()
	for {
		flags, seq, n, err := readHeader(c.raw, c.recvHdr, c.prefix, maxRecord+64)
		if err != nil {
			return nil, err
		}
		if len(out)+n-overhead > maxMessage {
			return nil, ErrMessageTooLarge
		}
		sealed, err := c.readSealed(n)
		if err != nil {
			return nil, err
		}
		if seq != c.recvSeq {
			return nil, fmt.Errorf("%w: got %d, want %d", ErrReplay, seq, c.recvSeq)
		}
		binary.BigEndian.PutUint64(c.recvNonce[4:], seq)
		final := flags&FlagFinal != 0
		into := out == nil && final && dst != nil && n-overhead <= cap(dst)
		opened := sealed[:0]
		if into {
			opened = dst[:0]
		}
		plain, err := c.recvAEAD.Open(opened, c.recvNonce[:], sealed, nil)
		if into && c.owned != nil {
			c.owned.HandBack(sealed)
		}
		if err != nil {
			return nil, ErrDecrypt
		}
		if c.onDecrypt != nil {
			c.onDecrypt(len(plain))
		}
		c.recvSeq++
		if final {
			if out == nil {
				return plain, nil
			}
			return append(out, plain...), nil
		}
		out = append(out, plain...)
	}
}

// readSealed reads a record's n payload bytes into a buffer nothing
// else references.
func (c *Conn) readSealed(n int) ([]byte, error) {
	if c.owned != nil {
		return c.owned.ReadExact(n)
	}
	return readN(c.raw, n)
}

// Close closes the underlying transport.
func (c *Conn) Close() error { return c.raw.Close() }
