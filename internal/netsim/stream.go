package netsim

import (
	"context"
	"fmt"
	"io"
	"net"
	"net/netip"
	"os"
	"sync"
	"time"
)

// Listener accepts simulated TCP connections on a host port. It
// implements net.Listener, so net/http servers run on it unmodified.
type Listener struct {
	host   *Host
	port   uint16
	accept chan *Conn
	done   chan struct{}
}

var _ net.Listener = (*Listener)(nil)

// Listen opens a TCP-like listener on the given port (0 picks an
// ephemeral port).
func (h *Host) Listen(port uint16) (*Listener, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return nil, ErrClosed
	}
	if port == 0 {
		p, err := h.allocPortLocked(ProtoTCP)
		if err != nil {
			return nil, err
		}
		port = p
	} else if _, used := h.listeners[port]; used {
		return nil, fmt.Errorf("netsim: listen %v:%d: %w", h.ip, port, ErrPortInUse)
	}
	l := &Listener{
		host: h,
		port: port,
		// The accept queue is the SYN backlog: under a join storm
		// (swarmload ramps thousands of dials at one server) dialers park
		// here instead of serializing on the Accept loop's pace.
		accept: make(chan *Conn, 64),
		done:   make(chan struct{}),
	}
	h.listeners[port] = l
	return l, nil
}

// Accept waits for the next inbound connection.
func (l *Listener) Accept() (net.Conn, error) {
	select {
	case c := <-l.accept:
		return c, nil
	case <-l.done:
		return nil, ErrClosed
	}
}

// Close stops the listener. In-flight connections are unaffected.
func (l *Listener) Close() error {
	l.host.mu.Lock()
	if l.host.listeners[l.port] == l {
		delete(l.host.listeners, l.port)
	}
	l.host.mu.Unlock()
	select {
	case <-l.done:
	default:
		close(l.done)
	}
	return nil
}

// Addr returns the listening address.
func (l *Listener) Addr() net.Addr {
	return &net.TCPAddr{IP: l.host.ip.AsSlice(), Port: int(l.port)}
}

// AddrPort returns the listening address as a netip.AddrPort on the
// host's visible (post-NAT) address, which is what remote peers dial.
func (l *Listener) AddrPort() netip.AddrPort {
	return netip.AddrPortFrom(l.host.VisibleAddr(), l.port)
}

// Dial opens a simulated TCP connection from this host to dst. The
// context bounds connection establishment only.
func (h *Host) Dial(ctx context.Context, dst netip.AddrPort) (*Conn, error) {
	if h.Closed() {
		return nil, fmt.Errorf("netsim: dial %v: %w", dst, ErrClosed)
	}
	dstHost, dstPort, ok := h.net.lookupTCP(h, dst)
	if !ok {
		return nil, fmt.Errorf("netsim: dial %v: %w", dst, ErrUnreachable)
	}
	if h.net.blockedPath(h.ip, dstHost.ip) {
		return nil, fmt.Errorf("netsim: dial %v: %w", dst, ErrUnreachable)
	}
	dstHost.mu.Lock()
	l := dstHost.listeners[dstPort]
	dstHost.mu.Unlock()
	if l == nil {
		return nil, fmt.Errorf("netsim: dial %v: %w", dst, ErrRefused)
	}

	h.mu.Lock()
	srcPort, err := h.allocPortLocked(ProtoTCP)
	if err != nil {
		h.mu.Unlock()
		return nil, err
	}
	// Reserve the port by installing a placeholder listener entry.
	h.listeners[srcPort] = nil
	h.mu.Unlock()

	visibleSrc := netip.AddrPortFrom(h.VisibleAddr(), srcPort)
	if h.nat != nil {
		visibleSrc = h.nat.mapOutbound(netip.AddrPortFrom(h.ip, srcPort), dst, ProtoTCP)
	}

	local := newConn(h, dstHost, netip.AddrPortFrom(h.ip, srcPort), dst)
	remote := newConn(dstHost, h, netip.AddrPortFrom(dstHost.ip, dstPort), visibleSrc)
	local.peer, remote.peer = remote, local

	// Simulate connection setup latency (one RTT-ish).
	if lat := h.pathLatency(dstHost); lat > 0 {
		t := time.NewTimer(2 * lat)
		select {
		case <-t.C:
		case <-ctx.Done():
			t.Stop()
			return nil, ctx.Err()
		}
	}

	select {
	case l.accept <- remote:
	case <-l.done:
		return nil, fmt.Errorf("netsim: dial %v: %w", dst, ErrRefused)
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	h.registerConn(local)
	dstHost.registerConn(remote)
	return local, nil
}

// Pair directly connects two hosts with a stream, bypassing dial/accept.
// ICE uses it to materialize the transport for a nominated candidate
// pair: real WebRTC agents keep exchanging data on the hole-punched UDP
// flow, which netsim models as a reliable stream between the nominated
// addresses. aVis/bVis are the candidate addresses each side advertises
// (post-NAT for srflx candidates), so captures and RemoteAddr report the
// same endpoints the STUN exchange leaked.
func Pair(a, b *Host, aVis, bVis netip.AddrPort) (*Conn, *Conn) {
	ca := newConn(a, b, netip.AddrPortFrom(a.ip, aVis.Port()), bVis)
	cb := newConn(b, a, netip.AddrPortFrom(b.ip, bVis.Port()), aVis)
	ca.peer, cb.peer = cb, ca
	a.registerConn(ca)
	b.registerConn(cb)
	return ca, cb
}

// Conn is one side of a simulated TCP connection. It implements net.Conn.
type Conn struct {
	host     *Host
	peerHost *Host
	peer     *Conn

	localAddr  netip.AddrPort // this side's own address (private if NATed)
	remoteAddr netip.AddrPort // peer's visible address

	inbox     chan chunk
	residual  []byte
	closed    chan struct{}
	closeOnce sync.Once

	// lent is the chunk ReadExact last handed over as delivered, until
	// HandBack returns it; only the reader touches it.
	lent []byte
	// big and small park the buffers the peer's reader handed back to
	// this side's writer: the writer's own, read and done with, like a
	// socket send buffer freed once the peer has read it. big is the
	// larger and small, when big is held too, a smaller one, so a frame
	// header's record never displaces a segment body's.
	backMu sync.Mutex
	big    []byte
	small  []byte

	readDL  deadline
	writeDL deadline
}

var (
	_ net.Conn      = (*Conn)(nil)
	_ io.ReaderFrom = (*Conn)(nil)
)

// newConn makes host's side of a stream to peerHost; the caller links
// it to the other side's peer.
func newConn(host, peerHost *Host, localAddr, remoteAddr netip.AddrPort) *Conn {
	return &Conn{
		host:       host,
		peerHost:   peerHost,
		localAddr:  localAddr,
		remoteAddr: remoteAddr,
		inbox:      make(chan chunk, 64),
		closed:     make(chan struct{}),
		readDL:     makeDeadline(),
		writeDL:    makeDeadline(),
	}
}

// chunk is one delivery on a stream. A shared chunk's bytes belong to
// a Shared source: the stream and the reader only read them.
type chunk struct {
	b      []byte
	shared bool
}

// Shared is a read-only byte source whose bytes nobody writes again,
// such as a CDN origin's memoized segment. Conn.ReadFrom sends what is
// left of it as one chunk without copying; Read serves net/http's
// sniffing prefix. It has no WriteTo, so io.Copy reaches the
// destination's ReadFrom.
type Shared struct {
	b   []byte
	off int
}

// NewShared wraps b, which neither the caller nor anyone else may write
// while the stream can still deliver it.
func NewShared(b []byte) *Shared { return &Shared{b: b} }

// Read implements io.Reader.
func (s *Shared) Read(p []byte) (int, error) {
	if s.off >= len(s.b) {
		return 0, io.EOF
	}
	n := copy(p, s.b[s.off:])
	s.off += n
	return n, nil
}

// Read reads data from the connection.
func (c *Conn) Read(b []byte) (int, error) {
	if len(c.residual) == 0 {
		ch, err := c.nextChunk()
		if err != nil {
			return 0, err
		}
		c.residual = ch.b
	}
	n := copy(b, c.residual)
	c.residual = c.residual[n:]
	return n, nil
}

// ReadExact reads exactly n bytes, as io.ReadFull into a fresh buffer
// does, with one difference: when the next delivered chunk is exactly n
// bytes long and not shared it is returned as is, and the reader may
// later HandBack it to its writer. The stream never touches a delivered
// chunk again, so either way the caller owns the result. A chunk of any
// other length (a truncating impairment, a relay's re-chunking, bytes
// left over from an earlier Read), or one still owned by a Shared
// source, takes the gathering path.
func (c *Conn) ReadExact(n int) ([]byte, error) {
	c.lent = nil
	if n == 0 {
		return nil, nil
	}
	if len(c.residual) == 0 {
		ch, err := c.nextChunk()
		if err != nil {
			return nil, err
		}
		if len(ch.b) == n && !ch.shared {
			c.lent = ch.b
			return ch.b, nil
		}
		c.residual = ch.b
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(c, buf); err != nil {
		return nil, err
	}
	return buf, nil
}

// HandBack returns b, the chunk the last ReadExact handed over as
// delivered, to the writer that sent it, once the reader is done with
// it: the writer's next Reclaim may build its next write in it. The
// writer parks at most two such buffers, the largest handed back and
// one smaller: b displaces a smaller big buffer (which becomes the small
// one), fills an empty slot below a bigger one, and is otherwise left to
// the GC, as is any other buffer — a gathered read, a shared chunk's
// copy, a chunk already handed back.
func (c *Conn) HandBack(b []byte) {
	if len(b) == 0 || len(c.lent) == 0 || &b[0] != &c.lent[0] {
		return
	}
	b, c.lent = c.lent, nil
	w := c.peer
	w.backMu.Lock()
	switch {
	case w.big == nil:
		w.big = b
	case cap(b) > cap(w.big):
		w.big, w.small = b, w.big
	case cap(b) < cap(w.big) && w.small == nil:
		w.small = b
	}
	w.backMu.Unlock()
}

// Reclaim takes back, at its full capacity, a buffer the peer's reader
// handed back to this side whose capacity is within [min, max]; a
// buffer outside those bounds stays parked for a later call. It returns
// nil when there is none to take.
func (c *Conn) Reclaim(min, max int) []byte {
	c.backMu.Lock()
	defer c.backMu.Unlock()
	for _, slot := range [...]*[]byte{&c.big, &c.small} {
		if b := *slot; b != nil && cap(b) >= min && cap(b) <= max {
			*slot = nil
			if c.big == nil {
				c.big, c.small = c.small, nil
			}
			return b[:cap(b)]
		}
	}
	return nil
}

// nextChunk waits for the next chunk the peer delivered.
func (c *Conn) nextChunk() (chunk, error) {
	if isClosedChan(c.readDL.wait()) {
		return chunk{}, os.ErrDeadlineExceeded
	}
	select {
	case ch, ok := <-c.inbox:
		if !ok {
			return chunk{}, io.EOF
		}
		return ch, nil
	case <-c.closed:
		// Drain anything already delivered before reporting EOF.
		select {
		case ch, ok := <-c.inbox:
			if ok {
				return ch, nil
			}
		default:
		}
		return chunk{}, io.EOF
	case <-c.readDL.wait():
		return chunk{}, os.ErrDeadlineExceeded
	}
}

// Write sends data to the peer, applying the sender's upload shaping and
// the receiver's download shaping, and feeding both hosts' capture taps.
// It copies b, as the net.Conn contract requires: net/http and every
// other caller reuse their buffers.
func (c *Conn) Write(b []byte) (int, error) { return c.WriteOwned(append([]byte(nil), b...)) }

// WriteOwned is Write without the copy: b itself becomes the delivered
// chunk, so the caller must not read or write it afterwards, unless the
// peer's reader hands it back (Reclaim). The stream may mangle it in
// place (CorruptStreams) and the peer's reader ends up owning it
// (ReadExact).
func (c *Conn) WriteOwned(b []byte) (int, error) { return c.send(chunk{b: b}) }

// ReadFrom implements io.ReaderFrom. What is left of a *Shared source
// crosses the stream as one chunk, uncopied: the stream copies it
// before flipping its bytes and the reader copies out of it, so it is
// never written. Any other reader is copied through Write.
func (c *Conn) ReadFrom(r io.Reader) (int64, error) {
	s, ok := r.(*Shared)
	if !ok {
		return io.Copy(struct{ io.Writer }{c}, r) // hides ReadFrom from io.Copy
	}
	rest := s.b[s.off:]
	if len(rest) == 0 { // an empty chunk would be a spurious zero-length Read
		return 0, nil
	}
	n, err := c.send(chunk{b: rest, shared: true})
	s.off += n
	return int64(n), err
}

// send delivers one chunk to the peer.
func (c *Conn) send(ch chunk) (int, error) {
	select {
	case <-c.closed:
		return 0, ErrClosed
	default:
	}
	if isClosedChan(c.writeDL.wait()) {
		return 0, os.ErrDeadlineExceeded
	}
	if c.host.net.blockedPath(c.host.ip, c.peerHost.ip) {
		// An isolation installed concurrently with establishment; severing
		// handles existing conns, this guards the race.
		return 0, ErrUnreachable
	}

	sent := len(ch.b)
	ch = c.host.net.mangleStream(c.host.ip, ch)
	c.host.shapeUp(len(ch.b))
	if lat := c.host.pathLatency(c.peerHost); lat > 0 {
		time.Sleep(lat)
	}

	pkt := Packet{
		Proto:   ProtoTCP,
		Src:     c.peer.remoteAddr, // how the receiver sees us (post-NAT)
		Dst:     c.remoteAddr,
		Payload: ch.b,
	}
	pkt.Dir = DirOut
	c.host.tap(pkt)
	// The receiver's tap copies the chunk before the reader can get it:
	// once delivered the chunk is the reader's, to decrypt in place.
	pkt.Dir = DirIn
	pkt.Dst = netip.AddrPortFrom(c.peerHost.ip, c.peer.localAddr.Port())
	c.peerHost.tap(pkt)

	select {
	case c.peer.inbox <- ch:
	case <-c.peer.closed:
		return 0, ErrClosed
	case <-c.closed:
		return 0, ErrClosed
	case <-c.writeDL.wait():
		return 0, os.ErrDeadlineExceeded
	}
	c.peerHost.shapeDown(len(ch.b))
	return sent, nil
}

// Close closes both directions of the connection.
func (c *Conn) Close() error {
	c.closeSide()
	c.peer.closeSide()
	return nil
}

// closeSide is safe for concurrent use: net.Conn.Close may race itself
// (a session handler's deferred Close against a server shutdown's, or
// against the peer end closing both sides), and a select/default guard
// alone would let two goroutines both reach the close. It disarms both
// deadlines, so a closed side leaves no timer pending.
func (c *Conn) closeSide() {
	c.closeOnce.Do(func() {
		close(c.closed)
		c.readDL.stop()
		c.writeDL.stop()
		c.host.unregisterConn(c)
	})
}

// LocalAddr returns the local address of the connection.
func (c *Conn) LocalAddr() net.Addr {
	return &net.TCPAddr{IP: c.localAddr.Addr().AsSlice(), Port: int(c.localAddr.Port())}
}

// RemoteAddr returns the peer's visible (post-NAT) address; this is what
// origin-checking servers and IP-harvesting attackers observe.
func (c *Conn) RemoteAddr() net.Addr {
	return &net.TCPAddr{IP: c.remoteAddr.Addr().AsSlice(), Port: int(c.remoteAddr.Port())}
}

// SetDeadline implements net.Conn.
func (c *Conn) SetDeadline(t time.Time) error {
	c.readDL.set(t)
	c.writeDL.set(t)
	return nil
}

// SetReadDeadline implements net.Conn.
func (c *Conn) SetReadDeadline(t time.Time) error {
	c.readDL.set(t)
	return nil
}

// SetWriteDeadline implements net.Conn.
func (c *Conn) SetWriteDeadline(t time.Time) error {
	c.writeDL.set(t)
	return nil
}
