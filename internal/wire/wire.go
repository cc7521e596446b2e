// Package wire provides the length-prefixed JSON message framing used on
// the signaling channel between PDN peers and the PDN server.
//
// Real PDN services speak JSON over secure WebSockets; the paper MITMs
// this channel (installing a proxy with a self-signed root) to read and
// rewrite messages. The testbed reproduces that: framing is trivially
// parseable so the mitm package can intercept, inspect, and modify
// messages in flight, exactly as the paper's proxy server does.
package wire

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"sync"
	"time"
)

// MaxMessage bounds a single frame to keep a malicious peer from forcing
// unbounded allocation on the server.
const MaxMessage = 4 << 20

// BodyTimeout bounds the wait for a frame's body once its header has
// arrived. A sender writes header and body back to back, so a body that
// is not already buffered is at most a few link latencies behind; one
// that takes longer was announced by a corrupted length prefix and will
// never come. The wait between frames stays unbounded: a session may
// idle as long as it likes.
const BodyTimeout = 2 * time.Second

// Envelope is the outer structure of every signaling message.
type Envelope struct {
	// Type routes the message, e.g. "join", "welcome", "peers".
	Type string `json:"type"`
	// Data is the type-specific payload.
	Data json.RawMessage `json:"data,omitempty"`
}

// NewEnvelope marshals payload into an Envelope of the given type.
func NewEnvelope(typ string, payload any) (Envelope, error) {
	if payload == nil {
		return Envelope{Type: typ}, nil
	}
	raw, err := json.Marshal(payload)
	if err != nil {
		return Envelope{}, fmt.Errorf("wire: marshal %s: %w", typ, err)
	}
	return Envelope{Type: typ, Data: raw}, nil
}

// Decode unmarshals the envelope's payload into out.
func (e Envelope) Decode(out any) error {
	if err := json.Unmarshal(e.Data, out); err != nil {
		return fmt.Errorf("wire: decode %s: %w", e.Type, err)
	}
	return nil
}

// Codec frames envelopes over a stream. It is safe for one concurrent
// reader and one concurrent writer; Write is additionally self-locking
// so multiple goroutines may send.
type Codec struct {
	r *bufio.Reader

	wmu sync.Mutex
	w   *bufio.Writer

	conn net.Conn
}

// NewCodec wraps a connection with generous 64 KiB buffers, sized for
// a handful of long-lived channels per process.
func NewCodec(conn net.Conn) *Codec {
	return NewCodecSize(conn, 64<<10)
}

// NewCodecSize wraps a connection with bufSize-byte read and write
// buffers. Components that hold one codec per peer at six-figure peer
// counts (the signal server and the swarmload generator) pass a small
// size here: at 100k sessions the default 128 KiB per codec end would
// cost ~25 GB in bufio alone. Frames larger than the buffer still work;
// bufio just stops batching them.
func NewCodecSize(conn net.Conn, bufSize int) *Codec {
	if bufSize < 512 {
		bufSize = 512
	}
	return &Codec{
		r:    bufio.NewReaderSize(conn, bufSize),
		w:    bufio.NewWriterSize(conn, bufSize),
		conn: conn,
	}
}

// Write frames and sends one envelope.
func (c *Codec) Write(e Envelope) error {
	body, err := json.Marshal(e)
	if err != nil {
		return fmt.Errorf("wire: marshal envelope: %w", err)
	}
	if len(body) > MaxMessage {
		return fmt.Errorf("wire: message of %d bytes exceeds limit", len(body))
	}
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(body)))
	c.wmu.Lock()
	defer c.wmu.Unlock()
	if _, err := c.w.Write(hdr[:]); err != nil {
		return fmt.Errorf("wire: write header: %w", err)
	}
	if _, err := c.w.Write(body); err != nil {
		return fmt.Errorf("wire: write body: %w", err)
	}
	if err := c.w.Flush(); err != nil {
		return fmt.Errorf("wire: flush: %w", err)
	}
	return nil
}

// Send is a convenience for NewEnvelope + Write.
func (c *Codec) Send(typ string, payload any) error {
	e, err := NewEnvelope(typ, payload)
	if err != nil {
		return err
	}
	return c.Write(e)
}

// Read blocks for the next envelope. Once a header has arrived, the body
// must follow within BodyTimeout or Read fails: while a body is
// outstanding, Read owns the connection's read deadline, and it clears
// the deadline when the body is in. A body already buffered costs no
// deadline.
func (c *Codec) Read() (Envelope, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(c.r, hdr[:]); err != nil {
		return Envelope{}, err // io.EOF passes through for clean shutdown
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n > MaxMessage {
		return Envelope{}, fmt.Errorf("wire: frame of %d bytes exceeds limit", n)
	}
	if c.r.Buffered() < int(n) {
		c.conn.SetReadDeadline(time.Now().Add(BodyTimeout))
		defer c.conn.SetReadDeadline(time.Time{})
	}
	body := make([]byte, n)
	if _, err := io.ReadFull(c.r, body); err != nil {
		return Envelope{}, fmt.Errorf("wire: read body: %w", err)
	}
	var e Envelope
	if err := json.Unmarshal(body, &e); err != nil {
		return Envelope{}, fmt.Errorf("wire: unmarshal envelope: %w", err)
	}
	return e, nil
}

// Close closes the underlying connection.
func (c *Codec) Close() error { return c.conn.Close() }
