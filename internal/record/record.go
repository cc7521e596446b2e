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
	ErrRecordTooLarge = errors.New("record: record exceeds size limit")
	ErrDecrypt        = errors.New("record: record authentication failed")
	ErrReplay         = errors.New("record: record sequence replayed or reordered")
	ErrBadPrefix      = errors.New("record: unexpected record type")
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

// readHeader reads one record header, requires it to start with prefix,
// and checks the length field against limit, so that a caller allocates
// (or waits for) the payload only after both hold.
func readHeader(r io.Reader, prefix string, limit int) (flags byte, seq uint64, n int, err error) {
	hdr := make([]byte, len(prefix)+tailLen)
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
	flags, seq, n, err := readHeader(r, prefix, limit)
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

// ownedIO is the ownership-transfer pair a *netsim.Conn offers beside
// Write and Read: WriteOwned delivers the caller's slice itself, and
// ReadExact hands a delivered chunk of exactly n bytes to the reader as
// is. Over it a sealed record crosses the stream without being copied;
// over any other conn (a wrapper such as mitm.TamperConn) the same
// bytes go through Write and io.ReadFull.
type ownedIO interface {
	WriteOwned(b []byte) (int, error)
	ReadExact(n int) ([]byte, error)
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

	sendMu  sync.Mutex
	sendSeq uint64
	recvMu  sync.Mutex
	recvSeq uint64
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
	c := &Conn{raw: raw, prefix: f.Data, sendAEAD: i2r, recvAEAD: r2i, onEncrypt: onEncrypt, onDecrypt: onDecrypt}
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

// Send encrypts and transmits one message. It does not retain msg.
func (c *Conn) Send(msg []byte) error { return c.SendParts(msg) }

// SendParts is Send for a message that is the concatenation of parts,
// which it gathers straight into the record buffer — a caller framing a
// header in front of a large payload need not join them first. It does
// not retain the parts.
//
// Each record is built in one buffer, header | plaintext | tag, and
// sealed in place; that buffer is the only copy of the payload the send
// side makes, and over an ownedIO conn it is the buffer the peer's Recv
// returns.
func (c *Conn) SendParts(parts ...[]byte) error {
	c.sendMu.Lock()
	defer c.sendMu.Unlock()
	rest := 0
	for _, p := range parts {
		rest += len(p)
	}
	hl := len(c.prefix) + tailLen
	var part []byte // the part being gathered; parts holds those after it
	for {
		n, flags := rest, FlagFinal
		if n > maxRecord {
			n, flags = maxRecord, 0
		}
		rest -= n
		buf := make([]byte, hl+n, hl+n+c.sendAEAD.Overhead())
		for fill := buf[hl:]; len(fill) > 0; {
			if len(part) == 0 {
				part, parts = parts[0], parts[1:]
			}
			k := copy(fill, part)
			fill, part = fill[k:], part[k:]
		}
		var nonce [12]byte
		binary.BigEndian.PutUint64(nonce[4:], c.sendSeq)
		sealed := c.sendAEAD.Seal(buf[hl:hl], nonce[:], buf[hl:], nil)
		if c.onEncrypt != nil {
			c.onEncrypt(n)
		}
		putHeader(buf[:hl], c.prefix, flags, c.sendSeq, len(sealed))
		if err := c.writeRecord(buf[:hl], sealed); err != nil {
			return fmt.Errorf("record: send: %w", err)
		}
		c.sendSeq++
		if flags == FlagFinal {
			return nil
		}
	}
}

// writeRecord writes a record Send built, as WriteRecord's two writes.
// The header is copied by Write; the sealed payload is handed over.
func (c *Conn) writeRecord(hdr, sealed []byte) error {
	if _, err := c.raw.Write(hdr); err != nil {
		return err
	}
	if c.owned != nil {
		_, err := c.owned.WriteOwned(sealed)
		return err
	}
	_, err := c.raw.Write(sealed)
	return err
}

// Recv reads and decrypts the next message; the caller owns the result.
// The sequence check is strict: a replayed, reordered, or dropped
// record is a hard error, never silently skipped — the nonce doubles as
// the sequence number, so accepting a replay would both break the
// anti-replay property and reuse a nonce.
//
// Each record is opened in place, and a message of one record is
// returned as that buffer; only a message Send had to split is
// reassembled.
func (c *Conn) Recv() ([]byte, error) {
	c.recvMu.Lock()
	defer c.recvMu.Unlock()
	var out []byte
	for {
		flags, seq, n, err := readHeader(c.raw, c.prefix, maxRecord+64)
		if err != nil {
			return nil, err
		}
		sealed, err := c.readSealed(n)
		if err != nil {
			return nil, err
		}
		if seq != c.recvSeq {
			return nil, fmt.Errorf("%w: got %d, want %d", ErrReplay, seq, c.recvSeq)
		}
		var nonce [12]byte
		binary.BigEndian.PutUint64(nonce[4:], seq)
		plain, err := c.recvAEAD.Open(sealed[:0], nonce[:], sealed, nil)
		if err != nil {
			return nil, ErrDecrypt
		}
		if c.onDecrypt != nil {
			c.onDecrypt(len(plain))
		}
		c.recvSeq++
		if flags&FlagFinal != 0 {
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
