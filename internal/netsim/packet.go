package netsim

import (
	"fmt"
	"net"
	"net/netip"
	"os"
	"time"
)

// datagram is an in-flight UDP payload with its visible source address.
type datagram struct {
	from    netip.AddrPort
	payload []byte
}

// packetConn is a simulated UDP socket bound to one host port. It
// implements net.PacketConn. STUN and the DTLS-like transport run on it.
type packetConn struct {
	host  *Host
	port  uint16
	inbox chan datagram
	done  chan struct{}

	readDL  deadline
	writeDL deadline
}

var _ net.PacketConn = (*packetConn)(nil)

// PacketConn is the exported view of a simulated UDP socket.
type PacketConn = packetConn

// ListenPacket binds a UDP-like socket on the given port (0 picks an
// ephemeral port).
func (h *Host) ListenPacket(port uint16) (*PacketConn, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return nil, ErrClosed
	}
	if port == 0 {
		p, err := h.allocPortLocked(ProtoUDP)
		if err != nil {
			return nil, err
		}
		port = p
	} else if _, used := h.udpSocks[port]; used {
		return nil, fmt.Errorf("netsim: listen udp %v:%d: %w", h.ip, port, ErrPortInUse)
	}
	pc := &packetConn{
		host:    h,
		port:    port,
		inbox:   make(chan datagram, 256),
		done:    make(chan struct{}),
		readDL:  makeDeadline(),
		writeDL: makeDeadline(),
	}
	h.udpSocks[port] = pc
	return pc, nil
}

// LocalAddrPort returns the socket's bound address on its own host
// (private if behind NAT).
func (pc *packetConn) LocalAddrPort() netip.AddrPort {
	return netip.AddrPortFrom(pc.host.ip, pc.port)
}

// WriteToAddrPort sends a datagram to dst. Unreachable destinations are
// silently dropped, as with real UDP.
func (pc *packetConn) WriteToAddrPort(b []byte, dst netip.AddrPort) (int, error) {
	select {
	case <-pc.done:
		return 0, ErrClosed
	default:
	}
	if isClosedChan(pc.writeDL.wait()) {
		return 0, os.ErrDeadlineExceeded
	}

	src := netip.AddrPortFrom(pc.host.ip, pc.port)
	visibleSrc := src
	if pc.host.nat != nil {
		visibleSrc = pc.host.nat.mapOutbound(src, dst, ProtoUDP)
	}

	payload := append([]byte(nil), b...)
	pc.host.shapeUp(len(payload))

	pkt := Packet{
		Proto:   ProtoUDP,
		Dir:     DirOut,
		Src:     visibleSrc,
		Dst:     dst,
		Payload: payload,
	}
	pc.host.tap(pkt)

	dstHost, dstPort, ok := pc.host.net.lookupUDP(pc.host, visibleSrc, dst)
	if !ok {
		return len(b), nil // unreachable: dropped
	}
	if pc.host.net.blockedPath(pc.host.ip, dstHost.ip) {
		return len(b), nil // isolated: dropped, like a routing blackhole
	}
	if pc.host.net.dropUDP() {
		return len(b), nil
	}
	dstHost.mu.Lock()
	sock := dstHost.udpSocks[dstPort]
	dstHost.mu.Unlock()
	if sock == nil {
		return len(b), nil // no listener: dropped
	}

	deliver := func() {
		dstHost.shapeDown(len(payload))
		inPkt := pkt
		inPkt.Dir = DirIn
		inPkt.Dst = netip.AddrPortFrom(dstHost.ip, dstPort)
		dstHost.tap(inPkt)
		select {
		case sock.inbox <- datagram{from: visibleSrc, payload: payload}:
		default: // receive buffer full: drop, like a real socket
		}
	}
	if lat := pc.host.pathLatency(dstHost); lat > 0 {
		time.AfterFunc(lat, deliver)
	} else {
		deliver()
	}
	return len(b), nil
}

// ReadFromAddrPort receives the next datagram.
func (pc *packetConn) ReadFromAddrPort(b []byte) (int, netip.AddrPort, error) {
	if isClosedChan(pc.readDL.wait()) {
		return 0, netip.AddrPort{}, os.ErrDeadlineExceeded
	}
	select {
	case d := <-pc.inbox:
		n := copy(b, d.payload)
		return n, d.from, nil
	case <-pc.done:
		return 0, netip.AddrPort{}, ErrClosed
	case <-pc.readDL.wait():
		return 0, netip.AddrPort{}, os.ErrDeadlineExceeded
	}
}

// ReadFrom implements net.PacketConn.
func (pc *packetConn) ReadFrom(b []byte) (int, net.Addr, error) {
	n, ap, err := pc.ReadFromAddrPort(b)
	if err != nil {
		return n, nil, err
	}
	return n, net.UDPAddrFromAddrPort(ap), nil
}

// WriteTo implements net.PacketConn.
func (pc *packetConn) WriteTo(b []byte, addr net.Addr) (int, error) {
	ua, ok := addr.(*net.UDPAddr)
	if !ok {
		return 0, fmt.Errorf("netsim: WriteTo: unsupported addr type %T", addr)
	}
	return pc.WriteToAddrPort(b, ua.AddrPort())
}

// Close releases the socket and its port.
func (pc *packetConn) Close() error {
	pc.host.mu.Lock()
	if pc.host.udpSocks[pc.port] == pc {
		delete(pc.host.udpSocks, pc.port)
	}
	pc.host.mu.Unlock()
	select {
	case <-pc.done:
	default:
		close(pc.done)
	}
	return nil
}

// LocalAddr implements net.PacketConn.
func (pc *packetConn) LocalAddr() net.Addr {
	return net.UDPAddrFromAddrPort(pc.LocalAddrPort())
}

// SetDeadline implements net.PacketConn.
func (pc *packetConn) SetDeadline(t time.Time) error {
	pc.readDL.set(t)
	pc.writeDL.set(t)
	return nil
}

// SetReadDeadline implements net.PacketConn.
func (pc *packetConn) SetReadDeadline(t time.Time) error {
	pc.readDL.set(t)
	return nil
}

// SetWriteDeadline implements net.PacketConn.
func (pc *packetConn) SetWriteDeadline(t time.Time) error {
	pc.writeDL.set(t)
	return nil
}
